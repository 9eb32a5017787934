package faultinject

// Process-level fault profiles for the supervised-run chaos suite
// (internal/supervise): where Faults and WriteFaults perturb one request
// or one write, ProcFaults perturbs a whole worker process — heartbeats
// silently dropped, a worker stalling mid-run, an exit that lingers, or
// the process SIGKILLing itself at a seeded control-message index. The
// supervised worker consults a ProcInjector at each protocol step, so
// the same seeded-injection discipline the serving chaos tests use
// extends to supervisor/worker tests without hand-rolled mocks.

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/stats"
)

// ProcFaults configures one worker process's fault profile. The zero
// value injects nothing.
type ProcFaults struct {
	// DropHeartbeatRate is the probability any individual heartbeat is
	// silently swallowed (a lossy control channel; the worker itself is
	// healthy).
	DropHeartbeatRate float64
	// DropHeartbeatsAfter, when > 0, suppresses every heartbeat after the
	// Nth — the classic "alive but mute" failure the supervisor must
	// distinguish from a late-but-alive worker.
	DropHeartbeatsAfter int
	// StallAtDay, when >= 0, wedges the worker at the end of that
	// simulated day for StallFor: day progress and heartbeats both stop,
	// exactly like a process stuck in a syscall. StallAtDay < 0 disables.
	StallAtDay int
	// StallFor bounds the stall; zero with StallAtDay >= 0 means 30s
	// (longer than any sane heartbeat timeout).
	StallFor time.Duration
	// DelayExit keeps the process alive that long after its work is done
	// (a slow-draining exit path).
	DelayExit time.Duration
	// KillAtControlMin/Max, when Max > 0, pick a seeded uniform control-
	// message index in [Min, Max] and SIGKILL the process just before it
	// sends that message. Min defaults to 1. Min == Max pins the exact
	// message. The draw is a pure function of (injector seed, proc name),
	// so a given seed always kills at the same point.
	KillAtControlMin int
	KillAtControlMax int
}

// ProcInjector is the per-process decision stream derived from a
// ProcFaults profile. Methods are called from the worker's protocol
// paths; each is safe for use from a single goroutine per method.
type ProcInjector struct {
	cfg    ProcFaults
	seed   uint64
	name   uint64
	killAt int

	heartbeats uint64
	dropped    uint64
	msgs       uint64
	stalled    chan struct{} // closed while (and after) a stall is in effect
	sleep      func(time.Duration)
}

// Proc derives a process fault injector from the profile. Decisions are
// a pure function of (injector seed, name, counter), mirroring Route and
// Writer.
func (in *Injector) Proc(name string, f ProcFaults) *ProcInjector {
	p := &ProcInjector{
		cfg:     f,
		seed:    in.seed,
		name:    stats.FNV1a(stats.FNVOffset, name),
		stalled: make(chan struct{}),
		sleep:   time.Sleep,
	}
	if f.KillAtControlMax > 0 {
		lo := f.KillAtControlMin
		if lo < 1 {
			lo = 1
		}
		hi := f.KillAtControlMax
		if hi < lo {
			hi = lo
		}
		rng := stats.NewRNG(in.seed ^ p.name ^ 0x70726f63) // "proc"
		p.killAt = lo + rng.Intn(hi-lo+1)
	}
	return p
}

// DropHeartbeat rolls the fate of the next heartbeat: true means the
// worker must swallow it. The i-th heartbeat's fate is a pure function
// of (seed, name, i).
func (p *ProcInjector) DropHeartbeat() bool {
	n := p.heartbeats
	p.heartbeats++
	if p.cfg.DropHeartbeatsAfter > 0 && n >= uint64(p.cfg.DropHeartbeatsAfter) {
		p.dropped++
		return true
	}
	if p.cfg.DropHeartbeatRate > 0 {
		rng := stats.NewRNG(p.seed ^ p.name ^ 0x6862 ^ ((n + 1) * 0x9e3779b97f4a7c15)) // "hb"
		if rng.Float64() < p.cfg.DropHeartbeatRate {
			p.dropped++
			return true
		}
	}
	return false
}

// ControlMessage counts one outbound control message and reports whether
// the kill point has been reached: true means the caller must die NOW
// (SIGKILL itself), before the message leaves the process.
func (p *ProcInjector) ControlMessage() bool {
	p.msgs++
	return p.killAt > 0 && p.msgs == uint64(p.killAt)
}

// DayEnd stalls the calling goroutine per the profile when day is the
// configured stall day. Stalled() reports true for the duration (and
// ever after), so the worker's heartbeat loop can go mute alongside —
// modeling a whole wedged process, not just a slow day loop.
func (p *ProcInjector) DayEnd(day int) {
	if p.cfg.StallAtDay < 0 || day != p.cfg.StallAtDay {
		return
	}
	d := p.cfg.StallFor
	if d <= 0 {
		d = 30 * time.Second
	}
	select {
	case <-p.stalled:
	default:
		close(p.stalled)
	}
	p.sleep(d)
}

// Stalled reports whether the stall fault has triggered.
func (p *ProcInjector) Stalled() bool {
	select {
	case <-p.stalled:
		return true
	default:
		return false
	}
}

// ExitDelay returns how long the process must linger before exiting.
func (p *ProcInjector) ExitDelay() time.Duration { return p.cfg.DelayExit }

// ParseProcFaults parses the compact spec the fraudsupervise CLI and chaos
// tests use to hand a profile to a worker process. Comma-separated
// clauses:
//
//	kill@msg=N        SIGKILL self before the Nth control message
//	kill@msg=A..B     seeded uniform kill index in [A, B]
//	drop-hb=RATE      drop each heartbeat with probability RATE
//	mute-hb@N         drop every heartbeat after the Nth
//	stall@day=D:DUR   wedge for DUR at the end of day D (e.g. 12:2s)
//	delay-exit=DUR    linger DUR after finishing
//
// The empty string parses to the zero (inject-nothing) profile.
func ParseProcFaults(spec string) (ProcFaults, error) {
	f := ProcFaults{StallAtDay: -1}
	if spec == "" {
		return f, nil
	}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		key, val, ok := strings.Cut(clause, "=")
		switch {
		case strings.HasPrefix(clause, "mute-hb@"):
			n, err := strconv.Atoi(strings.TrimPrefix(clause, "mute-hb@"))
			if err != nil || n < 1 {
				return f, fmt.Errorf("faultinject: bad mute-hb clause %q", clause)
			}
			f.DropHeartbeatsAfter = n
		case ok && key == "kill@msg":
			lo, hi, found := strings.Cut(val, "..")
			a, err := strconv.Atoi(lo)
			if err != nil || a < 1 {
				return f, fmt.Errorf("faultinject: bad kill@msg clause %q", clause)
			}
			b := a
			if found {
				if b, err = strconv.Atoi(hi); err != nil || b < a {
					return f, fmt.Errorf("faultinject: bad kill@msg clause %q", clause)
				}
			}
			f.KillAtControlMin, f.KillAtControlMax = a, b
		case ok && key == "drop-hb":
			r, err := strconv.ParseFloat(val, 64)
			if err != nil || r < 0 || r > 1 {
				return f, fmt.Errorf("faultinject: bad drop-hb clause %q", clause)
			}
			f.DropHeartbeatRate = r
		case ok && key == "stall@day":
			day, dur, found := strings.Cut(val, ":")
			if !found {
				return f, fmt.Errorf("faultinject: bad stall@day clause %q (want D:DUR)", clause)
			}
			d, err := strconv.Atoi(day)
			if err != nil || d < 0 {
				return f, fmt.Errorf("faultinject: bad stall@day clause %q", clause)
			}
			dd, err := time.ParseDuration(dur)
			if err != nil || dd <= 0 {
				return f, fmt.Errorf("faultinject: bad stall@day clause %q", clause)
			}
			f.StallAtDay, f.StallFor = d, dd
		case ok && key == "delay-exit":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return f, fmt.Errorf("faultinject: bad delay-exit clause %q", clause)
			}
			f.DelayExit = d
		default:
			return f, fmt.Errorf("faultinject: unknown fault clause %q", clause)
		}
	}
	return f, nil
}
