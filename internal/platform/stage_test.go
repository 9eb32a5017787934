package platform

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/adcopy"
	"repro/internal/market"
	"repro/internal/simclock"
	"repro/internal/verticals"
)

// stageWorkers are the flush fan-outs the staged runs are compared at.
var stageWorkers = []int{1, 2, 3, 7}

// stageWorld is one platform driven by a stage script, with every ad it
// created in creation order (paused and retired ones included), so the
// same script byte picks the corresponding ad on every platform.
type stageWorld struct {
	p     *Platform
	accts []AccountID
	ads   []*Ad
}

// Four (vertical, market) groups, so a flush at two or more workers has
// groups to spread.
var stageGroups = []struct {
	v verticals.Vertical
	c market.Country
}{
	{verticals.Games, market.US}, {verticals.Games, market.GB},
	{verticals.Downloads, market.US}, {verticals.Downloads, market.IN},
}

func newStageWorld(t *testing.T) *stageWorld {
	w := &stageWorld{p: New()}
	for range 3 {
		a := w.p.Register(RegistrationRequest{Country: market.US, PrimaryVertical: verticals.Games})
		if err := w.p.Approve(a.ID); err != nil {
			t.Fatal(err)
		}
		w.accts = append(w.accts, a.ID)
	}
	return w
}

// stageBid decodes one bid from two script bytes: few keywords, clusters
// and amounts, so that equal scores, and with them tie runs, are common.
func stageBid(b0, b1 byte) KeywordBid {
	return KeywordBid{
		KeywordID: int(b0 % 4),
		Cluster:   int(b0 / 4 % 2),
		Match:     MatchTypes[int(b0/8)%len(MatchTypes)],
		MaxBid:    []float64{0.5, 1, 2, 0}[b1%4], // 0: skipped by AddBidsBatch
	}
}

// createAd makes an ad in group g with n bids; an inactive account
// refuses it.
func (w *stageWorld) createAd(acct, g, q byte, bids []KeywordBid) *Ad {
	grp := stageGroups[int(g)%len(stageGroups)]
	quality := []float64{0.5, 1}[q%2]
	ad, err := w.p.CreateAd(w.accts[int(acct)%len(w.accts)], grp.v, grp.c, adcopy.Creative{}, quality, simclock.StampAt(0, 0))
	if err != nil {
		return nil
	}
	w.ads = append(w.ads, ad)
	w.p.AddBidsBatch(ad, bids, simclock.StampAt(0, 0))
	return ad
}

func (w *stageWorld) pick(b byte) *Ad {
	if len(w.ads) == 0 {
		return nil
	}
	return w.ads[int(b)%len(w.ads)]
}

// modify applies ModifyBid to bid b of ad with a ±20 % factor: in-place
// edits that leave lists only approximately sorted.
func (w *stageWorld) modify(ad *Ad, b, f byte) {
	if ad == nil || len(ad.Bids) == 0 {
		return
	}
	bid := ad.Bids[int(b)%len(ad.Bids)]
	w.p.ModifyBid(ad, bid, bid.MaxBid*(0.8+0.4*float64(f)/255))
}

// step runs one five-byte script op: the kind, then its operands.
func (w *stageWorld) step(op []byte) {
	ad := w.pick(op[1])
	switch op[0] % 8 {
	case 0: // a new ad with up to four batched bids
		var bids []KeywordBid
		for i := range int(op[2] % 5) {
			bids = append(bids, stageBid(op[3]+byte(7*i), op[4]+byte(i)))
		}
		w.createAd(op[1], op[2]/5, op[4]/4, bids)
	case 1: // a single bid on an existing ad (refused on an inactive one)
		if ad != nil {
			w.p.AddBid(ad, stageBid(op[2], op[3]|1), simclock.StampAt(0, 0))
		}
	case 2:
		w.modify(ad, op[2], op[3])
	case 3:
		if ad != nil {
			w.p.RetireAd(ad)
		}
	case 4:
		if ad != nil {
			w.p.PauseAd(ad)
		}
	case 5: // a bid updated and then removed
		w.modify(ad, op[2], op[3])
		if ad != nil {
			w.p.RetireAd(ad)
		}
	case 6: // an ad created and removed in one window
		if ad := w.createAd(op[1], op[2], op[3], []KeywordBid{stageBid(op[3], 1), stageBid(op[4], 2)}); ad != nil {
			w.modify(ad, op[2], op[4])
			w.p.RetireAd(ad)
		}
	case 7: // a shutdown: every ad paused, then its bids released
		w.p.Shutdown(w.accts[int(op[1])%len(w.accts)], simclock.StampAt(0, 0), "test")
	}
}

// indexState is what the staged and direct runs must agree on.
func indexState(p *Platform) string {
	idx := p.AppendIndex(nil, &ColumnScratch{})
	return fmt.Sprintf("len %d index %x", p.Index().Len(), idx)
}

// FuzzStagedIndexMatchesDirect runs one script of platform edits — bid
// adds, batched adds, ModifyBid, PauseAd, RetireAd, Shutdown — on a
// platform that applies them directly and on platforms that stage them
// and flush at 1, 2, 3 and 7 workers. The first byte sets the log cap,
// small enough to force flushes mid-window; an op byte of 0xff ends the
// window and opens the next. At every window end the index bytes and
// the length must equal the direct run's.
func FuzzStagedIndexMatchesDirect(f *testing.F) {
	// Equal-score runs: many same-amount bids on one keyword, then edits.
	f.Add([]byte{2, 0, 0, 4, 0, 1, 0, 1, 4, 0, 1, 0, 2, 4, 0, 1, 2, 0, 0, 1, 0, 3, 4, 0, 1, 0xff, 0, 0, 0, 0, 3, 1, 0, 0, 0})
	// Approximately sorted lists: repeated ±20 % edits between adds.
	f.Add([]byte{3, 0, 0, 4, 8, 1, 2, 0, 1, 200, 0, 0, 1, 4, 9, 2, 2, 1, 2, 30, 0, 3, 8, 4, 0, 0x0a, 1, 0, 3, 0, 4, 0, 1, 0, 0})
	// Created and removed in one window; updated then removed; shutdown.
	f.Add([]byte{1, 0, 1, 4, 3, 1, 6, 0, 2, 5, 9, 5, 0, 1, 77, 0, 0xff, 7, 1, 0, 0, 0, 0, 2, 9, 3, 2, 6, 1, 1, 1, 1})
	f.Add(bytes.Repeat([]byte{0, 1, 4, 5, 2, 2, 0, 3, 9, 100}, 12))
	// One batch holds an ad's adds, its bid's update and its removal: a
	// share that applied them out of order would leave the entries in.
	f.Add([]byte("7&"))
	// Cap 3: the log fills inside ModifyBid's UpdateBid, before the new
	// amount is written, so an update that read MaxBid when it applied
	// would store the old score and the next add would land elsewhere.
	f.Add([]byte("200y122000000y12"))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		logCap := 1 + int(script[0]%8)
		direct := newStageWorld(t)
		staged := make([]*stageWorld, len(stageWorkers))
		for i, workers := range stageWorkers {
			staged[i] = newStageWorld(t)
			staged[i].p.index.logCap = logCap
			staged[i].p.index.BeginStage(workers)
		}
		check := func(at int) {
			want := indexState(direct.p)
			for i, w := range staged {
				w.p.index.Flush()
				if got := indexState(w.p); got != want {
					t.Fatalf("op %d, %d workers, cap %d: staged index\n%s\nwant\n%s", at, stageWorkers[i], logCap, got, want)
				}
				w.p.index.BeginStage(stageWorkers[i])
			}
		}
		for at, rest := 0, script[1:]; len(rest) > 0; at++ {
			if rest[0] == 0xff {
				check(at)
				rest = rest[1:]
				continue
			}
			op := make([]byte, 5)
			rest = rest[copy(op, rest):]
			direct.step(op)
			for _, w := range staged {
				w.step(op)
			}
		}
		check(-1)
	})
}

// TestStagedReadsPanic: each posting-list read inside a staging window
// panics and names the missing Flush, and works again after it.
func TestStagedReadsPanic(t *testing.T) {
	p, _ := indexFixture(t)
	for _, tc := range []struct {
		name string
		read func()
	}{
		{"Sublists", func() { p.Index().Sublists(verticals.Games, market.US) }},
		{"Len", func() { p.Index().Len() }},
		{"AppendIndex", func() { p.AppendIndex(nil, &ColumnScratch{}) }},
		{"Snapshot", func() { p.Snapshot() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p.Index().BeginStage(1)
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, tc.name) || !strings.Contains(msg, "Index.Flush") {
						t.Fatalf("read inside a window: panic %q, want one naming %s and Index.Flush", msg, tc.name)
					}
				}()
				tc.read()
			}()
			p.Index().Flush()
			tc.read()
		})
	}
}
