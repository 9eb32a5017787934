package clicks

import (
	"repro/internal/auction"
	"repro/internal/platform"
	"repro/internal/queries"
)

// Page is one query's served page: the auction's placements, each
// placement's click probability, the owning account (the sim's
// fraud-presence loops read the flag straight off the pointer), and how
// many click-RNG draws rolling the page consumes — one per probability
// strictly inside (0,1), exactly what stats.RNG.Bool draws.
type Page struct {
	Placements []auction.Placement
	CPs        []float64
	Accts      []*platform.Account
	Draws      int32
}

// Scratch is one caller's reusable eligibility and auction storage; a
// goroutine that builds pages owns its own.
type Scratch struct {
	eligible []platform.BidRef
	auction  auction.Scratch
}

// PageBuilder is the query → page path both serving paths run, the
// sim's day loop and the HTTP adserver: eligibility against the frozen
// index, the auction, and the model's click probability per placement.
type PageBuilder struct {
	Model    *Model
	Auction  auction.Config
	Platform *platform.Platform
}

// Build overwrites pg with q's page. It reads q's keyword, cluster and
// form; sl is the posting-list handle of q's (vertical, country) and
// live the platform's stamped account-liveness bitmap
// (platform.LiveSet). An empty outcome leaves pg empty.
func (b *PageBuilder) Build(pg *Page, scr *Scratch, sl platform.Sublists, q *queries.Query, live []bool) {
	pg.Placements = pg.Placements[:0]
	pg.CPs = pg.CPs[:0]
	pg.Accts = pg.Accts[:0]
	pg.Draws = 0
	scr.eligible = sl.EligibleAppendLive(scr.eligible[:0], q.KeywordID, q.Cluster, q.Form, live)
	if len(scr.eligible) == 0 {
		return
	}
	res := auction.RunInto(b.Auction, scr.eligible, q.Form, &scr.auction)
	pg.Placements = append(pg.Placements, res.Placements...)
	for i := range pg.Placements {
		pl := &pg.Placements[i]
		cp := b.Model.ClickProbability(*pl)
		pg.CPs = append(pg.CPs, cp)
		pg.Accts = append(pg.Accts, b.Platform.MustAccount(pl.Ref.Ad.Account))
		if cp > 0 && cp < 1 {
			pg.Draws++
		}
	}
}
