package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/adserver"
	"repro/internal/auction"
	"repro/internal/faultinject"
	"repro/internal/router"
	"repro/internal/sim"
)

// Scenario is the machine-readable spec cmd/adbench runs: cluster
// shape, routing policy, arrival process, traffic classes and fault
// profiles. All durations are milliseconds so specs stay plain JSON.
type Scenario struct {
	Name      string `json:"name"`
	Seed      uint64 `json:"seed"`
	Instances int    `json:"instances"`
	Policy    string `json:"policy"` // round_robin | least_loaded | affinity

	// Bootstrap simulation shape (the platform every instance serves):
	// the small scale, with these overrides.
	Days    int `json:"days,omitempty"`    // override bootstrap days (0 = scale default)
	Queries int `json:"queries,omitempty"` // override bootstrap queries/day

	// Load shape.
	Arrival   ArrivalSpec `json:"arrival"`
	HorizonMS int         `json:"horizon_ms"` // schedule horizon
	Classes   []Class     `json:"classes"`

	// Per-instance serving stack; the request deadline is fixed
	// (instanceRequestTimeout), and the router runs with its defaults.
	MaxInflight int `json:"max_inflight,omitempty"` // admission bound (0 = none)
	CacheSize   int `json:"cache,omitempty"`        // response cache entries (0 = off)

	// Chaos.
	Faults []FaultSpec `json:"faults,omitempty"`
}

// ArrivalSpec names an arrival process in JSON form.
type ArrivalSpec struct {
	Kind    string  `json:"kind"` // poisson | flash
	Rate    float64 `json:"rate"`
	Factor  float64 `json:"factor,omitempty"`   // flash only
	StartMS int     `json:"start_ms,omitempty"` // flash only: the spike window
	DurMS   int     `json:"dur_ms,omitempty"`
}

// Process materializes the spec into an Arrival. A field its kind does
// not use is refused, as is a flash window that injects no spike; the
// window's end against the horizon is Scenario.Validate's to check.
func (a ArrivalSpec) Process() (Arrival, error) {
	if a.Rate <= 0 {
		return nil, fmt.Errorf("loadgen: arrival rate must be > 0")
	}
	switch a.Kind {
	case "poisson", "":
		if a.Factor != 0 || a.StartMS != 0 || a.DurMS != 0 {
			return nil, fmt.Errorf("loadgen: poisson arrival takes no factor, start_ms or dur_ms")
		}
		return Poisson{Rate: a.Rate}, nil
	case "flash":
		if a.Factor < 1 {
			return nil, fmt.Errorf("loadgen: flash arrival needs factor >= 1")
		}
		if a.StartMS < 0 || a.DurMS <= 0 {
			return nil, fmt.Errorf("loadgen: flash arrival needs start_ms >= 0 and dur_ms > 0")
		}
		return FlashCrowd{
			Base:     a.Rate,
			Factor:   a.Factor,
			Start:    time.Duration(a.StartMS) * time.Millisecond,
			Duration: time.Duration(a.DurMS) * time.Millisecond,
		}, nil
	}
	return nil, fmt.Errorf("loadgen: unknown arrival kind %q", a.Kind)
}

// FaultSpec applies a faultinject.Faults profile to one instance's
// /search: a fixed added latency, and an outage window of arrivals
// fail_from <= n < fail_until (1-based) answered with an error status.
type FaultSpec struct {
	Backend   int    `json:"backend"` // instance index
	LatencyMS int    `json:"latency_ms,omitempty"`
	FailFrom  uint64 `json:"fail_from,omitempty"`
	FailUntil uint64 `json:"fail_until,omitempty"`
}

// LoadScenario reads and validates a scenario spec file. A field the
// spec does not define is an error, so a misspelled or retired knob
// fails instead of running with its default.
func LoadScenario(path string) (Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return Scenario{}, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("loadgen: scenario %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, fmt.Errorf("loadgen: scenario %s: %w", path, err)
	}
	return s, nil
}

// Validate screens a scenario before any expensive bootstrap.
func (s *Scenario) Validate() error {
	if s.Instances < 1 {
		return fmt.Errorf("instances must be >= 1")
	}
	if _, ok := router.PolicyByName(s.Policy); !ok {
		return fmt.Errorf("unknown policy %q", s.Policy)
	}
	if _, err := s.Arrival.Process(); err != nil {
		return err
	}
	if s.HorizonMS <= 0 {
		return fmt.Errorf("horizon_ms must be > 0")
	}
	if s.Arrival.Kind == "flash" && s.Arrival.StartMS >= s.HorizonMS {
		return fmt.Errorf("flash start_ms %d is past horizon_ms %d: no spike", s.Arrival.StartMS, s.HorizonMS)
	}
	if err := ValidateClasses(s.Classes); err != nil {
		return err
	}
	// Zero turns a bound or a feature off, or picks the scale's own
	// size; a negative size would silently do the same, so it is refused.
	if s.MaxInflight < 0 || s.CacheSize < 0 || s.Days < 0 || s.Queries < 0 {
		return fmt.Errorf("max_inflight, cache, days and queries must be >= 0")
	}
	for _, f := range s.Faults {
		if f.Backend < 0 || f.Backend >= s.Instances {
			return fmt.Errorf("fault backend %d out of range (instances=%d)", f.Backend, s.Instances)
		}
		if f.LatencyMS < 0 {
			return fmt.Errorf("fault latency_ms must be >= 0")
		}
		// A window is absent (both zero) or 1 <= fail_from < fail_until;
		// any other pair injects no outage.
		if (f.FailFrom != 0 || f.FailUntil != 0) && (f.FailFrom == 0 || f.FailFrom >= f.FailUntil) {
			return fmt.Errorf("fault window [%d, %d) injects no outage", f.FailFrom, f.FailUntil)
		}
	}
	return nil
}

// ScenarioReport is adbench's machine-readable output.
type ScenarioReport struct {
	Scenario  string             `json:"scenario"`
	Seed      uint64             `json:"seed"`
	Instances int                `json:"instances"`
	Policy    string             `json:"policy"`
	Arrival   string             `json:"arrival"`
	Scheduled int                `json:"scheduled"` // materialized arrivals
	Load      RunReport          `json:"load"`
	Router    router.Stats       `json:"router"`
	Backends  []adserver.Statz   `json:"backends"`
	Injected  []InjectedBackends `json:"injected,omitempty"`
}

// InjectedBackends surfaces the fault layer's own accounting so chaos
// reports show what was actually injected.
type InjectedBackends struct {
	Backend int    `json:"backend"`
	Errors  uint64 `json:"errors"`
	Drops   uint64 `json:"drops"`
	Delayed uint64 `json:"delayed"`
}

// Normalize zeroes every wall-time-dependent and scheduling-dependent
// field that is not a pure function of the scenario seed: latency
// quantiles, wall time, offered rate, and live gauges. What remains —
// request/class/ad/click counters, per-backend served counts under a
// deterministic policy, fault tallies — must be byte-identical across
// runs of the same spec.
func (r ScenarioReport) Normalize() ScenarioReport {
	out := r
	out.Load = r.Load.Normalize()
	out.Router.Backends = append([]router.BackendStats(nil), r.Router.Backends...)
	for i := range out.Router.Backends {
		out.Router.Backends[i].InFlight = 0
		out.Router.Backends[i].Reported = 0
	}
	out.Backends = append([]adserver.Statz(nil), r.Backends...)
	for i := range out.Backends {
		out.Backends[i].InFlight = 0
	}
	return out
}

// instanceRequestTimeout is every instance's per-request deadline.
const instanceRequestTimeout = 2 * time.Second

// network is what a scenario's cluster talks over: listen opens each
// server's listener, dial is the senders' and proxy the router's
// transport (nil: their defaults).
type network struct {
	listen func() (net.Listener, error)
	dial   func(ctx context.Context, network, addr string) (net.Conn, error)
	proxy  http.RoundTripper
}

// RunScenario boots the cluster (N adserver instances over one shared
// frozen platform, each with its own serving stack and optional fault
// profile, behind a policy-driven router), fires the scenario's
// schedule at the router, and reports. logf (optional) receives
// progress lines.
func RunScenario(spec Scenario, logf func(format string, args ...interface{})) (ScenarioReport, error) {
	return runScenario(spec, logf, network{listen: func() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }})
}

// runScenario is RunScenario over the network nw.
func runScenario(spec Scenario, logf func(format string, args ...interface{}), nw network) (ScenarioReport, error) {
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	if err := spec.Validate(); err != nil {
		return ScenarioReport{}, err
	}

	// One bootstrap serves every instance: the platform snapshot is
	// frozen and read-only, and identical server seeds make instance
	// responses byte-identical, so routing policy can never change what
	// a client sees — only how fast it sees it.
	cfg, err := sim.Shape{Scale: "small", Seed: spec.Seed, Days: spec.Days, Queries: spec.Queries}.Config()
	if err != nil {
		return ScenarioReport{}, fmt.Errorf("adbench: %w", err)
	}
	logf("adbench: bootstrapping platform (%d days, %d queries/day)", cfg.Days, cfg.QueriesPerDay)
	boot := sim.New(cfg)
	res := boot.Run()
	logf("adbench: platform ready: %d accounts, %d live ads", res.Platform.NumAccounts(), res.Platform.LiveAds())

	inj := faultinject.New(spec.Seed)
	faultsByBackend := make(map[int]FaultSpec, len(spec.Faults))
	for _, f := range spec.Faults {
		faultsByBackend[f.Backend] = f
	}

	// Spawn instances, each on a listener of its own.
	type instance struct {
		name string
		hs   *http.Server
		ln   net.Listener
		srv  *adserver.Server
	}
	instances := make([]instance, 0, spec.Instances)
	shutdown := func() {
		for _, in := range instances {
			in.hs.Close()
		}
	}
	for i := 0; i < spec.Instances; i++ {
		name := fmt.Sprintf("i%d", i)
		srv := adserver.New(res.Platform, boot.Queries(), auction.DefaultConfig(), spec.Seed)
		opts := adserver.Options{
			MaxInFlight:    spec.MaxInflight,
			RequestTimeout: instanceRequestTimeout,
			InstanceID:     name,
			CacheSize:      spec.CacheSize,
		}
		if f, ok := faultsByBackend[i]; ok {
			opts.Wrap = inj.HTTP(name, faultinject.Faults{
				Latency:   time.Duration(f.LatencyMS) * time.Millisecond,
				FailFrom:  f.FailFrom,
				FailUntil: f.FailUntil,
			})
		}
		ln, err := nw.listen()
		if err != nil {
			shutdown()
			return ScenarioReport{}, fmt.Errorf("adbench: listen instance %d: %w", i, err)
		}
		hs := &http.Server{Handler: srv.Handler(opts)}
		go hs.Serve(ln)
		instances = append(instances, instance{name: name, hs: hs, ln: ln, srv: srv})
	}
	defer shutdown()

	// Router in front. Members are registered under their stable
	// instance names (not ephemeral host:port), so the affinity policy's
	// keyspace mapping is identical across runs of the same spec.
	pol, _ := router.PolicyByName(spec.Policy)
	rt, err := router.New(router.Options{Policy: pol, Seed: spec.Seed, Transport: nw.proxy})
	if err != nil {
		return ScenarioReport{}, err
	}
	for _, in := range instances {
		if _, err := rt.AddNamedBackend(in.name, "http://"+in.ln.Addr().String()); err != nil {
			return ScenarioReport{}, err
		}
	}
	rt.StartHealth()
	defer rt.Close()
	rln, err := nw.listen()
	if err != nil {
		return ScenarioReport{}, fmt.Errorf("adbench: listen router: %w", err)
	}
	rhs := &http.Server{Handler: rt}
	go rhs.Serve(rln)
	defer rhs.Close()

	// Materialize the deterministic request stream.
	proc, _ := spec.Arrival.Process()
	horizon := time.Duration(spec.HorizonMS) * time.Millisecond
	sched := Schedule(proc, spec.Seed^0xa5a5a5a5a5a5a5a5, horizon, 0)
	reqs := BuildRequests(boot.Queries(), spec.Classes, sched, spec.Seed^0x5a5a5a5a5a5a5a5a)
	logf("adbench: %d arrivals over %s via %s, policy=%s", len(reqs), horizon, proc, pol.Name())

	rep := run("http://"+rln.Addr().String(), spec.Classes, reqs, nw.dial)

	out := ScenarioReport{
		Scenario:  spec.Name,
		Seed:      spec.Seed,
		Instances: spec.Instances,
		Policy:    pol.Name(),
		Arrival:   proc.String(),
		Scheduled: len(reqs),
		Load:      rep,
		Router:    rt.Stats(),
	}
	for i, in := range instances {
		out.Backends = append(out.Backends, in.srv.Statz())
		if _, ok := faultsByBackend[i]; ok {
			bs := inj.Stats(in.name)
			out.Injected = append(out.Injected, InjectedBackends{
				Backend: i, Errors: bs.InjectedErrors, Drops: bs.DroppedConns, Delayed: bs.Delayed,
			})
		}
	}
	return out, nil
}
