package agents

// The daily campaign-management step, in two halves with a strict
// contract so that agents run on a worker pool without perturbing a
// seeded run:
//
//   - PlanStep is read-only. Every behavioral decision and every RNG draw
//     happens here, against frozen platform state, recorded into a
//     StepPlan. Each agent draws only from its private stream and reads
//     only its own account plus immutable tables (keyword universes,
//     market data), so PlanStep is safe to call concurrently for distinct
//     agents, each goroutine recording into a StepPlan of its own.
//   - ApplyStep executes the recorded operations — platform mutations,
//     collector records, event emission — with no RNG draws from the
//     agent's stream. The simulation goroutine applies plans in canonical
//     (live-list) order, which fixes index insertion order, collector
//     folds and event-log bytes whatever the planning fan-out was.
//
// The one subtlety is that decisions reference the evolving ad list: a
// churn victim is drawn from the ads present *after* this morning's
// builds, and CreateAd appends while RetireAd swap-removes. PlanStep
// mirrors that evolution symbolically (adsSim tracks each slot's bid
// count), so the Intn draws that pick victims and maintenance targets
// land on the ads ApplyStep will find in those slots.
//
// Shared-stream draws are split by half: the agent's private stream is
// consumed entirely at plan time; the runtime's shared ad-copy generator
// (FullCreatives only) is consumed at apply time, in canonical order.

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/adcopy"
	"repro/internal/dataset"
	"repro/internal/eventlog"
	"repro/internal/market"
	"repro/internal/platform"
	"repro/internal/simclock"
	"repro/internal/stats"
)

type opKind uint8

const (
	opCreate opKind = iota
	opRetire
	opModAd
	opModBid
)

// planOp is one recorded operation. slot indexes the account's Ads list
// at execution time (the plan's symbolic mirror guarantees it is valid);
// create indexes StepPlan.creates; bidIdx/mult parameterize a bid
// modification.
type planOp struct {
	kind   opKind
	slot   int32
	bidIdx int32
	create int32
	mult   float64
}

// planBid is one keyword bid of a planned ad, fully resolved at plan
// time: the apply half calls AddBid with exactly these values.
type planBid struct {
	kw      int32
	cluster int32
	match   platform.MatchType
	maxBid  float64
}

// createPlan is one planned ad creation. Bids live in the plan's bid
// arena at [bidOff, bidOff+bidLen). domIdx indexes the agent's domain
// list (the apply half resolves it against the agent's cached URL
// strings). phrase carries the head keyword's phrase for the
// FullCreatives generator, whose shared stream is drawn at apply time.
type createPlan struct {
	domIdx      int32
	phrase      string
	evasionUsed bool
	quality     float64
	at          simclock.Stamp
	bidOff      int32
	bidLen      int32
}

// StepPlan is the recorded outcome of PlanStep over a run of agents —
// one worker's block of the live list — as three arenas the agents'
// operations are appended to in plan order; steps[i] is where the i-th
// planned agent's operations begin. It is reusable across days: Reset
// keeps the backing arrays, so a day's planning allocates nothing once
// they have grown to the busiest day's size.
type StepPlan struct {
	steps   []int32
	ops     []planOp
	creates []createPlan
	bids    []planBid

	// adsSim mirrors the planning agent's ad list: one entry per ad slot
	// holding its bid count (the only property later draws need).
	adsSim []int32

	// kwBuf and matchBuf are planCreateAd's per-create scratch, truncated
	// at each use; kept here so the planning half stays allocation-flat
	// across days once capacities warm up.
	kwBuf    []int
	matchBuf []platform.MatchType
}

// Reset empties the plan for a new day.
func (p *StepPlan) Reset() {
	p.steps = p.steps[:0]
	p.ops = p.ops[:0]
	p.creates = p.creates[:0]
	p.bids = p.bids[:0]
}

// PlanStep runs the decision half of one day of campaign management for
// a live agent, appending the operations to plan as its next step (none
// when the agent is dormant or its account is no longer active). It
// performs no platform, collector or event-sink writes.
func (r *Runtime) PlanStep(a *Agent, day simclock.Day, plan *StepPlan) {
	plan.steps = append(plan.steps, int32(len(plan.ops)))
	acct := r.p.MustAccount(a.Account)
	if !acct.Alive() || day < a.StartDay {
		return
	}
	plan.adsSim = plan.adsSim[:0]
	for _, ad := range acct.Ads {
		plan.adsSim = append(plan.adsSim, int32(len(ad.Bids)))
	}
	created := acct.Created

	// Build out toward the target portfolio.
	deficit := a.PortfolioSize - len(acct.Ads)
	build := a.BuildPerDay
	if build > deficit {
		build = deficit
	}
	for i := 0; i < build; i++ {
		r.planCreateAd(a, day, created, plan)
	}

	// Churn: replace ads, discontinuing old campaigns before starting new
	// ones (§7 observes both strategies; replacement is the common case).
	if n := stats.Poisson(a.rng, a.ChurnRate); n > 0 && len(plan.adsSim) > 0 {
		if n > len(plan.adsSim) {
			n = len(plan.adsSim)
		}
		for i := 0; i < n; i++ {
			slot := a.rng.Intn(len(plan.adsSim))
			// Mirror platform.RetireAd's swap-remove.
			plan.adsSim[slot] = plan.adsSim[len(plan.adsSim)-1]
			plan.adsSim = plan.adsSim[:len(plan.adsSim)-1]
			plan.ops = append(plan.ops, planOp{kind: opRetire, slot: int32(slot)})
			r.planCreateAd(a, day, created, plan)
		}
	}

	// Maintenance: modify creatives and bids at the agent's cadence.
	// Fraudulent advertisers "appear to maintain their ads and keyword
	// sets at rates similar to other advertisers" (§5.2).
	if a.rng.Bool(a.MaintainRate) && len(plan.adsSim) > 0 {
		mods := 1 + a.rng.Intn(3)
		for i := 0; i < mods && len(plan.adsSim) > 0; i++ {
			slot := a.rng.Intn(len(plan.adsSim))
			plan.ops = append(plan.ops, planOp{kind: opModAd, slot: int32(slot)})
			if nb := plan.adsSim[slot]; nb > 0 {
				bidIdx := a.rng.Intn(int(nb))
				mult := a.rng.Range(0.85, 1.2)
				plan.ops = append(plan.ops, planOp{kind: opModBid, slot: int32(slot), bidIdx: int32(bidIdx), mult: mult})
			}
		}
	}
}

// planCreateAd draws one ad creation — domain, keywords, quality, stamp,
// match types and bid amounts — and records it.
func (r *Runtime) planCreateAd(a *Agent, day simclock.Day, created simclock.Stamp, plan *StepPlan) {
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
	plan.kwBuf = a.kwSampler.SampleInto(plan.kwBuf[:0], a.KeywordsPerAd)
	kws := plan.kwBuf

	cp := createPlan{domIdx: int32(domIdx)}
	if r.FullCreatives {
		cp.phrase = u.Keywords[kws[0]].Phrase
	} else {
		cp.evasionUsed = a.Evasion > 0 && a.rng.Bool(a.Evasion)
	}
	cp.quality = clamp(a.Quality+0.05*a.rng.NormFloat64(), 0.02, 1)
	at := simclock.StampAt(day, a.rng.Float64())
	// On the agent's first active day the random within-day fraction can
	// land before the account's registration stamp; campaign actions must
	// never precede the account itself.
	if at < created {
		at = created + 0.01
	}
	cp.at = at

	def := market.Get(a.Target).DefaultMaxBid
	vinfo := r.vertInfoBid(a)
	// Draw a match type per keyword slot, then pair exact matches with the
	// most popular keywords: advertisers place exact bids on the
	// high-volume queries they know, and spray phrase/broad over the tail.
	matches := plan.matchBuf[:0]
	for range kws {
		matches = append(matches, platform.MatchTypes[stats.Categorical(a.rng, a.MatchMix[:])])
	}
	plan.matchBuf = matches
	sort.Ints(kws) // ascending keyword ID == descending popularity
	slices.Sort(matches)
	cp.bidOff = int32(len(plan.bids))
	for i, kw := range kws {
		match := matches[i]
		// "the median maximum bid is the same as the default amount in US
		// markets" (§5.3): a majority of advertisers keep the default;
		// the rest bid to their vertical's level.
		maxBid := def
		if !a.rng.Bool(a.DefaultBidProb) {
			maxBid = def * vinfo * a.BidScale * clamp(1+0.3*a.rng.NormFloat64(), 0.3, 3)
		}
		plan.bids = append(plan.bids, planBid{
			kw:      int32(kw),
			cluster: int32(u.Keywords[kw].Cluster),
			match:   match,
			maxBid:  maxBid,
		})
		// Advertisers who use exact matching duplicate their head
		// keywords across match types: the exact bid captures the bare
		// query precisely while the looser bid catches the long tail.
		// This is why exact matches dominate received clicks (Table 4)
		// even though exact bids are a minority of the bid book.
		if match != platform.MatchExact && a.MatchMix[platform.MatchExact] > 0 &&
			i < (len(kws)+2)/3 && a.rng.Bool(0.6) {
			plan.bids = append(plan.bids, planBid{
				kw:      int32(kw),
				cluster: int32(u.Keywords[kw].Cluster),
				match:   platform.MatchExact,
				maxBid:  maxBid,
			})
		}
	}
	cp.bidLen = int32(len(plan.bids)) - cp.bidOff
	plan.creates = append(plan.creates, cp)
	plan.ops = append(plan.ops, planOp{kind: opCreate, create: int32(len(plan.creates) - 1)})
	plan.adsSim = append(plan.adsSim, cp.bidLen)
}

// ApplyStep executes step i of a recorded plan — what the i-th PlanStep
// since Reset recorded, for the same agent: all platform mutations,
// collector records and event emissions, in recorded order. It returns
// the number of ads created. It must run on the simulation goroutine;
// steps are applied in canonical agent order, which fixes every
// order-sensitive byte (index insertion, shared creative stream, event
// log).
func (r *Runtime) ApplyStep(a *Agent, day simclock.Day, plan *StepPlan, i int) int {
	ops := plan.ops[plan.steps[i]:]
	if i+1 < len(plan.steps) {
		ops = ops[:plan.steps[i+1]-plan.steps[i]]
	}
	if len(ops) == 0 {
		return 0
	}
	acct := r.p.MustAccount(a.Account)
	created := 0
	for _, op := range ops {
		switch op.kind {
		case opRetire:
			r.p.RetireAd(acct.Ads[op.slot])
		case opModAd:
			ad := acct.Ads[op.slot]
			r.p.ModifyAd(ad, ad.Creative)
			r.col.Campaign(day, a.Account, dataset.ActionAdModify, 1)
			r.emit(eventlog.Event{Type: eventlog.TypeAdModified, Day: int32(day), Account: int32(a.Account)})
		case opModBid:
			ad := acct.Ads[op.slot]
			bid := ad.Bids[op.bidIdx]
			r.p.ModifyBid(ad, bid, bid.MaxBid*op.mult)
			r.col.Campaign(day, a.Account, dataset.ActionKwModify, 1)
			r.emit(eventlog.Event{Type: eventlog.TypeBidModified, Day: int32(day), Account: int32(a.Account)})
		case opCreate:
			cp := &plan.creates[op.create]
			var creative adcopy.Creative
			if r.FullCreatives {
				creative = r.copygen.Creative(a.Vertical, cp.phrase, a.domains[cp.domIdx], a.Evasion)
			} else {
				// Carry only the fields detection and analysis consume;
				// the URL strings come from the agent's per-domain cache.
				a.ensureURLs()
				creative = adcopy.Creative{
					DisplayURL:  a.dispURLs[cp.domIdx],
					DestURL:     a.destURLs[cp.domIdx],
					HasPhone:    a.Vertical == "techsupport",
					EvasionUsed: cp.evasionUsed,
				}
			}
			ad, err := r.p.CreateAd(a.Account, a.Vertical, a.Target, creative, cp.quality, cp.at)
			if err != nil {
				// The plan was drawn against the same frozen state the apply
				// half runs on, so a rejection means the two halves disagree
				// about the world — a contract violation, not a recoverable
				// condition.
				panic(fmt.Sprintf("agents: planned ad create rejected: %v", err))
			}
			created++
			r.col.Campaign(day, a.Account, dataset.ActionAdCreate, 1)
			// Events carry the loop day, not at.Day(): the first-day clamp
			// can push a stamp across a day boundary, and the collector's
			// campaign counters are keyed by the loop day.
			r.emit(eventlog.Event{Type: eventlog.TypeAdCreated, Day: int32(day), Account: int32(a.Account), Vertical: int32(a.VerticalIdx)})
			// One exact-size backing allocation for the whole bid set
			// instead of one heap object per bid. AddBidsBatch skips
			// non-positive amounts exactly as per-bid AddBid would
			// (the freshly created ad is always active), so the
			// collector/event loop mirrors that predicate.
			pbs := plan.bids[cp.bidOff : cp.bidOff+cp.bidLen]
			r.kbScratch = r.kbScratch[:0]
			for _, pb := range pbs {
				r.kbScratch = append(r.kbScratch, platform.KeywordBid{
					KeywordID: int(pb.kw),
					Cluster:   int(pb.cluster),
					Match:     pb.match,
					MaxBid:    pb.maxBid,
				})
			}
			r.p.AddBidsBatch(ad, r.kbScratch, cp.at)
			def := market.Get(a.Target).DefaultMaxBid
			for _, pb := range pbs {
				if pb.maxBid <= 0 {
					continue
				}
				r.col.Campaign(day, a.Account, dataset.ActionKwCreate, 1)
				r.col.BidCreated(a.Account, pb.match, pb.maxBid/def)
				r.emit(eventlog.Event{Type: eventlog.TypeBidPlaced, Day: int32(day), Account: int32(a.Account), Match: uint8(pb.match), Amount: pb.maxBid / def})
			}
		}
	}
	return created
}
