package agents

// The daily campaign-management step: Runtime.Step decides and acts in
// one pass, on the simulation goroutine, for one agent at a time.
//
// An agent draws only from its private stream and reads only its own
// account plus immutable tables (keyword universes, market data), so what
// one agent does never depends on the order agents are stepped in. The
// order still fixes every shared byte — index insertion, the runtime's
// ad-copy stream (FullCreatives only), and the event stream the
// collector folds — so the day loop steps agents in live-list order.

import (
	"fmt"
	"slices"

	"repro/internal/adcopy"
	"repro/internal/eventlog"
	"repro/internal/market"
	"repro/internal/platform"
	"repro/internal/simclock"
	"repro/internal/stats"
)

// Step runs one day of campaign management for a live agent: nothing
// when the agent is dormant or its account is no longer active.
func (r *Runtime) Step(a *Agent, day simclock.Day) {
	acct := r.p.MustAccount(a.Account)
	if !acct.Alive() || day < a.StartDay {
		return
	}

	// Build out toward the target portfolio.
	build := min(a.BuildPerDay, a.PortfolioSize-len(acct.Ads))
	for i := 0; i < build; i++ {
		r.createAd(a, acct, day)
	}

	// Churn: replace ads, discontinuing old campaigns before starting new
	// ones (§7 observes both strategies; replacement is the common case).
	// The count is clamped once, to the portfolio as it stands after this
	// morning's builds.
	n := min(stats.Poisson(a.rng, a.ChurnRate), len(acct.Ads))
	for i := 0; i < n; i++ {
		r.p.RetireAd(acct.Ads[a.rng.Intn(len(acct.Ads))])
		r.createAd(a, acct, day)
	}

	// Maintenance: modify creatives and bids at the agent's cadence.
	// Fraudulent advertisers "appear to maintain their ads and keyword
	// sets at rates similar to other advertisers" (§5.2).
	if a.rng.Bool(a.MaintainRate) && len(acct.Ads) > 0 {
		mods := 1 + a.rng.Intn(3)
		for i := 0; i < mods; i++ {
			ad := acct.Ads[a.rng.Intn(len(acct.Ads))]
			r.p.ModifyAd(ad, ad.Creative)
			r.events.Append(eventlog.Event{Type: eventlog.TypeAdModified, Day: int32(day), Account: int32(a.Account)})
			if len(ad.Bids) == 0 {
				continue
			}
			bid := ad.Bids[a.rng.Intn(len(ad.Bids))]
			r.p.ModifyBid(ad, bid, bid.MaxBid*a.rng.Range(0.85, 1.2))
			r.events.Append(eventlog.Event{Type: eventlog.TypeBidModified, Day: int32(day), Account: int32(a.Account)})
		}
	}
}

// createAd draws one ad — domain, keywords, quality, stamp, match types
// and bid amounts — and creates it with its bids on the platform.
func (r *Runtime) createAd(a *Agent, acct *platform.Account, day simclock.Day) {
	u := r.universe(a.VerticalIdx)
	if u == nil || u.Size() == 0 {
		return
	}
	domIdx := a.rng.Intn(len(a.domains))
	// The sampler is cached per agent (its parameters are fixed by the
	// profile); building it consumes no randomness, so the lazy rebuild
	// after a Hijack or checkpoint restore is draw-for-draw neutral.
	if a.kwSampler == nil {
		a.kwSampler = u.NewKeywordSampler(a.rng, a.KeywordSkew, a.PocketStart, a.PocketSpan)
	}
	r.kwBuf = a.kwSampler.SampleInto(r.kwBuf[:0], a.KeywordsPerAd)
	kws := r.kwBuf
	// Full ad copy is written around the first keyword drawn and carries
	// its own evasion; the light creative carries only the flag.
	var phrase string
	var evasionUsed bool
	if r.FullCreatives {
		phrase = u.Keywords[kws[0]].Phrase
	} else {
		evasionUsed = a.Evasion > 0 && a.rng.Bool(a.Evasion)
	}
	quality := clamp(a.Quality+0.05*a.rng.NormFloat64(), 0.02, 1)
	at := simclock.StampAt(day, a.rng.Float64())
	// On the agent's first active day the random within-day fraction can
	// land before the account's registration stamp; campaign actions must
	// never precede the account itself.
	if at < acct.Created {
		at = acct.Created + 0.01
	}

	def := market.Get(a.Target).DefaultMaxBid
	level := vertBidLevel(a.Vertical)
	// Draw a match type per keyword slot, then pair exact matches with the
	// most popular keywords: advertisers place exact bids on the
	// high-volume queries they know, and spray phrase/broad over the tail.
	matches := r.matchBuf[:0]
	for range kws {
		matches = append(matches, platform.MatchTypes[stats.Categorical(a.rng, a.MatchMix[:])])
	}
	r.matchBuf = matches
	slices.Sort(kws) // ascending keyword ID == descending popularity
	slices.Sort(matches)
	// One staged set and one batched insert give the ad's bids a single
	// exact-size backing allocation instead of one heap object per bid.
	bids := r.kbScratch[:0]
	for i, kw := range kws {
		// "the median maximum bid is the same as the default amount in US
		// markets" (§5.3): a majority of advertisers keep the default;
		// the rest bid to their vertical's level.
		maxBid := def
		if !a.rng.Bool(a.DefaultBidProb) {
			maxBid = def * level * a.BidScale * clamp(1+0.3*a.rng.NormFloat64(), 0.3, 3)
		}
		kb := platform.KeywordBid{KeywordID: kw, Cluster: u.Keywords[kw].Cluster, Match: matches[i], MaxBid: maxBid}
		bids = append(bids, kb)
		// Advertisers who use exact matching duplicate their head
		// keywords across match types: the exact bid captures the bare
		// query precisely while the looser bid catches the long tail.
		// This is why exact matches dominate received clicks (Table 4)
		// even though exact bids are a minority of the bid book.
		if kb.Match != platform.MatchExact && a.MatchMix[platform.MatchExact] > 0 &&
			i < (len(kws)+2)/3 && a.rng.Bool(0.6) {
			kb.Match = platform.MatchExact
			bids = append(bids, kb)
		}
	}
	r.kbScratch = bids

	var creative adcopy.Creative
	if r.FullCreatives {
		creative = r.copygen.Creative(a.Vertical, phrase, a.domains[domIdx], a.Evasion)
	} else {
		// Carry only the fields detection and analysis consume; the URL
		// strings come from the agent's per-domain cache.
		a.ensureURLs()
		creative = adcopy.Creative{
			DisplayURL:  a.dispURLs[domIdx],
			DestURL:     a.destURLs[domIdx],
			HasPhone:    a.Vertical == "techsupport",
			EvasionUsed: evasionUsed,
		}
	}
	ad, err := r.p.CreateAd(a.Account, a.Vertical, a.Target, creative, quality, at)
	if err != nil {
		// Step checked the account is active and quality is clamped into
		// range, so a rejection means this code and the platform disagree
		// about the world; carrying on would silently shift every later
		// draw's meaning.
		panic(fmt.Sprintf("agents: ad create rejected: %v", err))
	}
	// Events carry the loop day, not at.Day(): the first-day clamp can
	// push a stamp across a day boundary, and the collector's campaign
	// counters are keyed by the loop day.
	r.events.Append(eventlog.Event{Type: eventlog.TypeAdCreated, Day: int32(day), Account: int32(a.Account), Vertical: int32(a.VerticalIdx)})
	r.p.AddBidsBatch(ad, bids, at)
	for i := range bids {
		// AddBidsBatch skips non-positive amounts; record what it kept.
		b := &bids[i]
		if b.MaxBid <= 0 {
			continue
		}
		r.events.Append(eventlog.Event{Type: eventlog.TypeBidPlaced, Day: int32(day), Account: int32(a.Account), Match: uint8(b.Match), Amount: b.MaxBid / def})
	}
}
