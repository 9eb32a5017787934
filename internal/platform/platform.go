package platform

import (
	"fmt"

	"repro/internal/adcopy"
	"repro/internal/eventlog"
	"repro/internal/market"
	"repro/internal/simclock"
	"repro/internal/verticals"
)

// Platform is the in-memory ad network. It owns the account and ad tables,
// the eligible-bid index, and the billing ledger. Platform is not safe for
// concurrent mutation; the simulation engine serializes writes and fans
// out read-only auction evaluation. The one parallel write is internal:
// an index staging window (Index.BeginStage) applies its edits per
// posting-list group on several goroutines.
type Platform struct {
	accounts []*Account
	nextAdID AdID
	adsLive  int
	index    *Index
	ledger   Ledger
	events   eventlog.Sink
}

// New returns an empty platform.
func New() *Platform {
	return &Platform{index: NewIndex()}
}

// SetEvents attaches an event sink; account-level records (the paper's
// customer records) are emitted through it. A nil sink disables emission.
func (p *Platform) SetEvents(s eventlog.Sink) { p.events = s }

// RegistrationRequest carries the information an advertiser supplies when
// opening an account.
type RegistrationRequest struct {
	At              simclock.Stamp
	Country         market.Country
	Fraud           bool
	PrimaryVertical verticals.Vertical
	StolenPayment   bool
	Generation      int
}

// Register opens a new account in StatusRegistered. Screening (approve or
// reject) is the detection pipeline's job; the platform only records.
func (p *Platform) Register(req RegistrationRequest) *Account {
	m := market.Get(req.Country)
	a := &Account{
		ID:              AccountID(len(p.accounts)),
		Created:         req.At,
		Country:         req.Country,
		Language:        m.Language,
		Currency:        m.Currency,
		Fraud:           req.Fraud,
		PrimaryVertical: req.PrimaryVertical,
		StolenPayment:   req.StolenPayment,
		Generation:      req.Generation,
		Status:          StatusRegistered,
		ShutdownAt:      NoStamp,
		FirstAdAt:       NoStamp,
	}
	p.accounts = append(p.accounts, a)
	if p.events != nil {
		var flags uint8
		if req.Fraud {
			flags |= eventlog.FlagFraud
		}
		if req.StolenPayment {
			flags |= eventlog.FlagStolenPayment
		}
		p.events.Append(eventlog.Event{
			Type:     eventlog.TypeAccountCreated,
			Day:      int32(req.At.Day()),
			Account:  int32(a.ID),
			At:       float64(req.At),
			Country:  string(req.Country),
			Vertical: int32(verticals.Index(req.PrimaryVertical)),
			N:        int32(req.Generation),
			Flags:    flags,
		})
	}
	return a
}

// Approve moves a registered account to active.
func (p *Platform) Approve(id AccountID) error {
	a, err := p.Account(id)
	if err != nil {
		return err
	}
	if a.Status != StatusRegistered {
		return fmt.Errorf("platform: approve %d in state %s", id, a.Status)
	}
	a.Status = StatusActive
	return nil
}

// Reject refuses a registered account before it can show any ad.
func (p *Platform) Reject(id AccountID, at simclock.Stamp, reason string) error {
	a, err := p.Account(id)
	if err != nil {
		return err
	}
	if a.Status != StatusRegistered {
		return fmt.Errorf("platform: reject %d in state %s", id, a.Status)
	}
	a.Status = StatusRejected
	a.ShutdownAt = at
	a.ShutdownReason = reason
	return nil
}

// Shutdown freezes an active account, removing all its ads from serving.
func (p *Platform) Shutdown(id AccountID, at simclock.Stamp, reason string) error {
	a, err := p.Account(id)
	if err != nil {
		return err
	}
	if a.Status != StatusActive {
		return fmt.Errorf("platform: shutdown %d in state %s", id, a.Status)
	}
	a.Status = StatusShutdown
	a.ShutdownAt = at
	a.ShutdownReason = reason
	for _, ad := range a.Ads {
		p.PauseAd(ad)
		ad.Bids = nil
	}
	return nil
}

// Close winds down an active account voluntarily: the advertiser's
// business ended. Unlike Shutdown this is not an enforcement action.
func (p *Platform) Close(id AccountID, at simclock.Stamp) error {
	a, err := p.Account(id)
	if err != nil {
		return err
	}
	if a.Status != StatusActive {
		return fmt.Errorf("platform: close %d in state %s", id, a.Status)
	}
	a.Status = StatusClosed
	a.ShutdownAt = at
	for _, ad := range a.Ads {
		p.PauseAd(ad)
		ad.Bids = nil
	}
	return nil
}

// Account returns the account with the given ID.
func (p *Platform) Account(id AccountID) (*Account, error) {
	if int(id) < 0 || int(id) >= len(p.accounts) {
		return nil, fmt.Errorf("platform: no account %d", id)
	}
	return p.accounts[id], nil
}

// MustAccount returns the account or panics; for internal callers that
// hold IDs the platform itself issued.
func (p *Platform) MustAccount(id AccountID) *Account {
	a, err := p.Account(id)
	if err != nil {
		panic(err)
	}
	return a
}

// Accounts returns the full account table (index == AccountID). Read-only.
func (p *Platform) Accounts() []*Account { return p.accounts }

// NumAccounts returns the number of registered accounts.
func (p *Platform) NumAccounts() int { return len(p.accounts) }

// LiveAds returns the number of currently serving ads. Retired ads release
// their storage, so the platform intentionally keeps no global ad table —
// a two-year run creates millions of ads and the analyses consume only
// aggregates.
func (p *Platform) LiveAds() int { return p.adsLive }

// Ledger returns the billing ledger.
func (p *Platform) Ledger() *Ledger { return &p.ledger }

// Index returns the eligible-bid index (read-only use by the auction).
func (p *Platform) Index() *Index { return p.index }

// LiveSet returns a dense liveness bitmap indexed by AccountID, for use
// with Sublists.EligibleAppendLive: live[id] is true iff the account is in
// StatusActive. Each call stamps a fresh bitmap, which the caller owns:
// it reflects the accounts as of the call, so stamp once after the last
// write and before fanning out read-only serving workers. Fraud flags
// are intentionally NOT part of the stamp — they are read live per
// impression.
func (p *Platform) LiveSet() []bool {
	live := make([]bool, len(p.accounts))
	for i, a := range p.accounts {
		live[i] = a.Status == StatusActive
	}
	return live
}

// CreateAd posts a new ad for an active account. The ad starts with no
// keyword bids; attach them with AddBid.
func (p *Platform) CreateAd(acct AccountID, v verticals.Vertical, target market.Country, creative adcopy.Creative, quality float64, at simclock.Stamp) (*Ad, error) {
	a, err := p.Account(acct)
	if err != nil {
		return nil, err
	}
	if a.Status != StatusActive {
		return nil, fmt.Errorf("platform: account %d not active (%s)", acct, a.Status)
	}
	if quality <= 0 || quality > 1 {
		return nil, fmt.Errorf("platform: ad quality %g out of (0, 1]", quality)
	}
	ad := &Ad{
		ID:       p.nextAdID,
		Account:  acct,
		Vertical: v,
		Target:   target,
		Creative: creative,
		Quality:  quality,
		Created:  at,
		Active:   true,
	}
	p.nextAdID++
	p.adsLive++
	a.Ads = append(a.Ads, ad)
	a.AdsCreated++
	if a.FirstAdAt == NoStamp {
		a.FirstAdAt = at
	}
	return ad, nil
}

// AddBid attaches a keyword bid to an ad and indexes it for serving.
func (p *Platform) AddBid(ad *Ad, bid KeywordBid, at simclock.Stamp) error {
	if !ad.Active {
		return fmt.Errorf("platform: ad %d inactive", ad.ID)
	}
	if bid.MaxBid <= 0 {
		return fmt.Errorf("platform: non-positive bid %g", bid.MaxBid)
	}
	b := bid
	b.Created = at
	ad.Bids = append(ad.Bids, &b)
	acct := p.MustAccount(ad.Account)
	acct.KeywordsCreated++
	p.index.AddBid(ad, &b)
	return nil
}

// AddBidsBatch attaches a set of keyword bids to an ad in order, with the
// same per-bid semantics as AddBid (non-positive amounts are skipped, an
// inactive ad accepts nothing) but one exact-size backing allocation for
// the whole batch instead of one heap object per bid. The backing array's
// lifetime matches the ad's, so retiring the ad releases the whole batch
// at once.
func (p *Platform) AddBidsBatch(ad *Ad, bids []KeywordBid, at simclock.Stamp) {
	if !ad.Active {
		return
	}
	n := 0
	for i := range bids {
		if bids[i].MaxBid > 0 {
			n++
		}
	}
	if n == 0 {
		return
	}
	arr := make([]KeywordBid, 0, n)
	if free := cap(ad.Bids) - len(ad.Bids); free < n {
		grown := make([]*KeywordBid, len(ad.Bids), len(ad.Bids)+n)
		copy(grown, ad.Bids)
		ad.Bids = grown
	}
	acct := p.MustAccount(ad.Account)
	ps := p.index.group(vcKey{ad.Vertical, ad.Target}, true) // every bid of an ad shares its group
	for i := range bids {
		if bids[i].MaxBid <= 0 {
			continue
		}
		arr = append(arr, bids[i])
		b := &arr[len(arr)-1]
		b.Created = at
		ad.Bids = append(ad.Bids, b)
		acct.KeywordsCreated++
		p.index.addBid(ps, ad, b)
	}
}

// ModifyAd records a creative modification (counted for Figure 7c) and
// swaps the ad's creative.
func (p *Platform) ModifyAd(ad *Ad, creative adcopy.Creative) {
	ad.Creative = creative
	p.MustAccount(ad.Account).AdsModified++
}

// ModifyBid records a bid modification (counted for Figure 7d) and updates
// the max bid in place. The index holds pointers, so no reindex is needed.
func (p *Platform) ModifyBid(ad *Ad, bid *KeywordBid, newMax float64) {
	if newMax > 0 {
		// Re-sync the cached posting-list score while the old amount is
		// still in place (it is the lookup key), then write the new one.
		p.index.UpdateBid(ad, bid, newMax)
		bid.MaxBid = newMax
	}
	p.MustAccount(ad.Account).KeywordsModified++
}

// PauseAd removes an ad from serving without shutting down the account
// (used by agents that discontinue campaigns, and by per-ad policy
// enforcement: "an individual ad or keyword may be removed ... without
// shutting down the entire account" §3.2).
func (p *Platform) PauseAd(ad *Ad) {
	if ad.Active {
		ad.Active = false
		p.adsLive--
		p.index.RemoveAd(ad)
	}
}

// RetireAd pauses an ad and releases its bid storage and its slot in the
// account's ad list. Campaign churn over a two-year horizon creates far
// more ads than are ever live at once; retiring keeps memory proportional
// to the live set while the per-account counters keep the analyses whole.
func (p *Platform) RetireAd(ad *Ad) {
	p.PauseAd(ad)
	ad.Bids = nil
	a := p.MustAccount(ad.Account)
	for i, other := range a.Ads {
		if other == ad {
			a.Ads[i] = a.Ads[len(a.Ads)-1]
			a.Ads = a.Ads[:len(a.Ads)-1]
			break
		}
	}
}

// Bill charges an account for one click at the given price and updates the
// rolling totals. Impressions are free but counted.
func (p *Platform) Bill(acct AccountID, price float64) {
	a := p.MustAccount(acct)
	a.Clicks++
	a.Spend += price
	p.ledger.Charge(price, a.StolenPayment)
}

// CountImpressions adds n to the account's impression counter: serving
// counts impressions per worker and applies one delta per account at the
// day barrier. Impression counters are plain sums, so the batched apply
// is order-insensitive.
func (p *Platform) CountImpressions(acct AccountID, n int64) {
	p.MustAccount(acct).Impressions += n
}
