// Package verticals defines the advertising vertical taxonomy the paper's
// behavioral analysis is organized around: the "dubious" verticals that
// fraudulent advertisers concentrate in (§5.2.1 — techsupport, downloads,
// luxury counterfeits, miracle supplements, impersonation, phishing, …) and
// the long tail of legitimate verticals that have essentially no fraud
// overlap (§6: "Most verticals have no overlap with fraudulent advertising
// at all").
//
// Each vertical carries the economic parameters that drive behavior in the
// simulator: keyword universe size, typical product price (techsupport
// calls cost "hundreds of dollars"; §4.2 notes top fraud CPCs in the tens
// of dollars on >$100 products), relative bid level, legitimate-advertiser
// density (competition), and a fraud-appeal weight that determines which
// verticals fraud archetypes select.
package verticals

// Vertical names a market segment. Values are stable identifiers used in
// datasets and reports.
type Vertical string

// Dubious verticals: the categories Figure 8 tracks plus phishing (§5.2.2).
const (
	TechSupport   Vertical = "techsupport"
	Downloads     Vertical = "downloads"
	Luxury        Vertical = "luxury"
	Flights       Vertical = "flights"
	Wrinkles      Vertical = "wrinkles"
	Impersonation Vertical = "impersonation"
	WeightLoss    Vertical = "weightloss"
	Shopping      Vertical = "shopping"
	Games         Vertical = "games"
	Chronic       Vertical = "chronic"
	Phishing      Vertical = "phishing"
)

// Info describes one vertical's static parameters.
type Info struct {
	Name Vertical

	// Dubious marks verticals fraudulent advertisers participate in. The
	// organic/influenced comparisons of Figures 14–17 are restricted to
	// dubious verticals.
	Dubious bool

	// FraudAppeal is the relative probability that a fraud archetype
	// selects this vertical, before policy modulation. Zero for
	// non-dubious verticals.
	FraudAppeal float64

	// ProductPrice is the typical sale price (USD) of what the vertical
	// sells; it bounds how much an advertiser can rationally pay per
	// click.
	ProductPrice float64

	// BidLevel is the vertical's typical maximum-bid level relative to the
	// US default bid (1.0). Competitive, high-value verticals bid above
	// default.
	BidLevel float64

	// LegitDensity is the relative number of legitimate advertisers
	// operating in the vertical; it controls auction competitiveness.
	// "Verticals engaged by fraudsters are often highly competitive" (§1).
	LegitDensity float64

	// QueryShare is the vertical's share of overall query volume. Shares
	// sum to 1 across All().
	QueryShare float64

	// Keywords is the number of distinct keywords in the vertical's
	// universe.
	Keywords int

	// BaseTerms seed the keyword/ad-copy generator for the vertical.
	BaseTerms []string
}

var dubious = []Info{
	{TechSupport, true, 4.0, 300, 3.0, 0.7, 0.010, 400,
		[]string{"printer support", "router help", "antivirus support", "accounting software help", "tech support", "helpline number", "computer repair", "email support"}},
	{Downloads, true, 5.0, 15, 0.6, 0.8, 0.030, 900,
		[]string{"free download", "software download", "video player", "pdf reader", "media converter", "driver update", "discord", "browser download"}},
	{Luxury, true, 2.5, 150, 1.2, 0.8, 0.012, 500,
		[]string{"designer sunglasses", "coach bags", "outlet sale", "designer handbags", "luxury watches", "factory outlet", "purses sale"}},
	{Flights, true, 1.2, 400, 1.8, 1.6, 0.020, 400,
		[]string{"cheap flights", "airline tickets", "last minute flights", "flight deals", "discount airfare"}},
	{Wrinkles, true, 2.0, 90, 1.5, 0.8, 0.008, 300,
		[]string{"anti wrinkle cream", "skin care", "anti aging serum", "wrinkle remover", "face cream"}},
	{Impersonation, true, 2.2, 40, 0.9, 0.9, 0.030, 700,
		[]string{"youtube", "videos", "news", "online shopping", "social network", "streaming", "search", "target store", "walmart hours"}},
	{WeightLoss, true, 2.0, 70, 1.4, 0.8, 0.010, 350,
		[]string{"weight loss supplements", "diet pills", "fat burner", "garcinia", "lose weight fast"}},
	{Shopping, true, 1.5, 60, 1.0, 1.2, 0.050, 800,
		[]string{"online shopping", "deals", "coupons", "discount codes", "best price", "buy online"}},
	{Games, true, 1.3, 25, 0.7, 0.8, 0.025, 600,
		[]string{"free games", "online games", "game download", "mmorpg", "browser games", "game cheats"}},
	{Chronic, true, 1.0, 120, 1.6, 0.6, 0.006, 250,
		[]string{"pain relief", "chronic pain", "joint supplement", "miracle cure", "natural remedy"}},
	{Phishing, true, 0.4, 500, 1.1, 0.5, 0.004, 200,
		[]string{"bank login", "account verify", "credit union online", "webmail login", "password reset"}},
}

// legitNames populates the long tail of clean verticals. None of these
// receive fraud campaigns, so advertisers within them are "essentially
// unaffected by fraudulent advertisers" (§6).
var legitNames = []struct {
	name  Vertical
	share float64
	bid   float64
	terms []string
}{
	{"insurance", 0.045, 4.0, []string{"car insurance", "life insurance quotes", "home insurance", "cheap insurance"}},
	{"finance", 0.040, 3.5, []string{"mortgage rates", "personal loan", "credit card offers", "refinance"}},
	{"legal", 0.020, 4.5, []string{"personal injury lawyer", "divorce attorney", "legal advice"}},
	{"auto", 0.045, 1.5, []string{"new cars", "used cars", "car dealership", "auto parts"}},
	{"realestate", 0.035, 2.0, []string{"homes for sale", "apartments for rent", "real estate agent"}},
	{"travel", 0.050, 1.6, []string{"hotels", "vacation packages", "resort deals", "car rental"}},
	{"education", 0.035, 2.2, []string{"online degree", "college courses", "certification", "mba program"}},
	{"medical", 0.040, 2.5, []string{"dentist near me", "urgent care", "physical therapy", "dermatologist"}},
	{"retail", 0.080, 0.9, []string{"furniture", "mattress sale", "appliances", "home decor"}},
	{"electronics", 0.060, 1.1, []string{"laptop deals", "smartphone", "tv sale", "headphones"}},
	{"fashion", 0.055, 0.8, []string{"dresses", "mens shoes", "jewelry", "watches"}},
	{"food", 0.040, 0.7, []string{"pizza delivery", "meal kits", "restaurant near me", "recipes"}},
	{"fitness", 0.030, 1.0, []string{"gym membership", "protein powder", "home gym", "yoga classes"}},
	{"hosting", 0.015, 2.8, []string{"web hosting", "domain registration", "vps server", "website builder"}},
	{"software", 0.035, 2.4, []string{"crm software", "project management tool", "accounting software", "antivirus"}},
	{"b2b", 0.025, 3.0, []string{"office supplies", "business insurance", "payroll services", "crm"}},
	{"jobs", 0.030, 1.4, []string{"jobs hiring", "resume builder", "work from home", "part time jobs"}},
	{"dating", 0.020, 1.8, []string{"dating sites", "meet singles", "matchmaking"}},
	{"pets", 0.025, 0.8, []string{"dog food", "pet insurance", "veterinarian", "cat supplies"}},
	{"home", 0.035, 1.3, []string{"plumber", "hvac repair", "roofing contractor", "house cleaning"}},
	{"garden", 0.020, 0.7, []string{"lawn care", "garden supplies", "landscaping"}},
	{"baby", 0.020, 0.9, []string{"baby clothes", "strollers", "car seats", "diapers"}},
	{"books", 0.015, 0.5, []string{"books online", "textbooks", "audiobooks"}},
	{"music", 0.020, 0.6, []string{"concert tickets", "music streaming", "guitar lessons"}},
	{"sports", 0.030, 0.8, []string{"sports tickets", "golf clubs", "running shoes", "fishing gear"}},
	{"gifts", 0.025, 0.9, []string{"flowers delivery", "gift baskets", "personalized gifts", "greeting cards"}},
	{"telecom", 0.025, 2.0, []string{"cell phone plans", "internet providers", "cable tv deals"}},
	{"energy", 0.010, 1.7, []string{"solar panels", "electricity rates", "energy comparison"}},
}

var (
	all     []Info
	indexOf map[Vertical]int
)

func init() {
	all = append(all, dubious...)
	for _, l := range legitNames {
		all = append(all, Info{
			Name:         l.name,
			Dubious:      false,
			ProductPrice: 120,
			BidLevel:     l.bid,
			LegitDensity: 2.0,
			QueryShare:   l.share,
			Keywords:     600,
			BaseTerms:    l.terms,
		})
	}
	// Normalize query shares to sum to exactly 1.
	total := 0.0
	for _, v := range all {
		total += v.QueryShare
	}
	for i := range all {
		all[i].QueryShare /= total
	}
	indexOf = make(map[Vertical]int, len(all))
	for i, v := range all {
		indexOf[v.Name] = i
	}
}

// All returns every vertical. The returned slice must not be modified.
func All() []Info { return all }

// Get returns the Info for a vertical name; ok reports whether it exists.
func Get(name Vertical) (Info, bool) {
	for _, v := range all {
		if v.Name == name {
			return v, true
		}
	}
	return Info{}, false
}

// IsDubious reports whether the named vertical is fraud-targeted.
func IsDubious(name Vertical) bool {
	v, ok := Get(name)
	return ok && v.Dubious
}

// Index returns the position of the vertical in All(), or -1.
func Index(name Vertical) int {
	if i, ok := indexOf[name]; ok {
		return i
	}
	return -1
}
