// Auctionwalk: a hand-built walk through the ad auction — match-type
// eligibility, quality-scored ranking, mainline/sidebar allocation, and
// generalized second-price billing — on a book of five advertisers
// bidding on the same keyword.
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/adcopy"
	"repro/internal/auction"
	"repro/internal/market"
	"repro/internal/platform"
	"repro/internal/simclock"
	"repro/internal/verticals"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	p := platform.New()

	// Five advertisers in the downloads vertical. The last is our
	// "fraudster": default bid, broad match, mediocre quality.
	type spec struct {
		name    string
		match   platform.MatchType
		bid     float64
		quality float64
	}
	specs := []spec{
		{"BigSoft (exact, premium)", platform.MatchExact, 2.0, 0.80},
		{"ShareTool (exact)", platform.MatchExact, 1.2, 0.65},
		{"DownloadHub (phrase)", platform.MatchPhrase, 1.5, 0.55},
		{"FreewarePortal (phrase)", platform.MatchPhrase, 0.9, 0.70},
		{"TotallyLegitSoft (broad)", platform.MatchBroad, 1.0, 0.45},
	}

	names := map[platform.AccountID]string{}
	for _, sp := range specs {
		acct := p.Register(platform.RegistrationRequest{
			Country:         market.US,
			PrimaryVertical: verticals.Downloads,
		})
		if err := p.Approve(acct.ID); err != nil {
			return err
		}
		names[acct.ID] = sp.name
		ad, err := p.CreateAd(acct.ID, verticals.Downloads, market.US,
			adcopy.Creative{DisplayURL: "www.example.com"}, sp.quality, simclock.StampAt(0, 0))
		if err != nil {
			return err
		}
		// Everyone bids on keyword 0 ("free download"), cluster 0.
		err = p.AddBid(ad, platform.KeywordBid{
			KeywordID: 0, Cluster: 0, Match: sp.match, MaxBid: sp.bid,
		}, simclock.StampAt(0, 0))
		if err != nil {
			return err
		}
	}

	lists := p.Index().Sublists(verticals.Downloads, market.US)
	live := p.LiveSet()
	cfg := auction.DefaultConfig()

	for _, form := range []platform.QueryForm{platform.FormBare, platform.FormExtended, platform.FormReordered} {
		fmt.Fprintf(w, "=== query form: %s ===\n", form)
		eligible := lists.EligibleAppendLive(nil, 0, 0, form, live)
		fmt.Fprintf(w, "eligible bids: %d of %d\n", len(eligible), len(specs))
		res := auction.Run(cfg, eligible, form)
		for _, pl := range res.Placements {
			section := "sidebar "
			if pl.Mainline {
				section = "mainline"
			}
			fmt.Fprintf(w, "  pos %d [%s] %-28s score=%.3f  bid=%.2f  pays=%.3f (GSP)\n",
				pl.Position, section, names[pl.Ref.Ad.Account],
				pl.Score, pl.Ref.Bid.MaxBid, pl.Price)
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintln(w, "Note how the exact-match bids dominate the bare query, the")
	fmt.Fprintln(w, "broad bid survives every form but ranks low, and each winner")
	fmt.Fprintln(w, "pays only what was needed to beat the next candidate.")
	return nil
}
