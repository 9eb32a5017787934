package faultinject

// Process-level fault profiles for the supervised-run chaos suite
// (internal/supervise): where Faults and WriteFaults perturb one request
// or one write, ProcFaults perturbs a whole worker process — heartbeats
// that stop, a worker wedged mid-run, or the process SIGKILLing itself
// at a seeded control-message index. The supervised worker consults a
// ProcInjector at each protocol step, so the same seeded-injection
// discipline the serving chaos tests use extends to supervisor/worker
// tests without hand-rolled mocks.

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/stats"
)

// ProcFaults configures one worker process's fault profile. The zero
// value injects nothing.
type ProcFaults struct {
	// DropHeartbeatsAfter, when > 0, suppresses every heartbeat after the
	// Nth — the classic "alive but mute" failure the supervisor must
	// distinguish from a late-but-alive worker.
	DropHeartbeatsAfter int
	// StallAtDay, when >= 0, wedges the worker at the end of that
	// simulated day until its supervisor is gone: day progress and
	// heartbeats both stop, exactly like a process stuck in a syscall.
	// StallAtDay < 0 disables.
	StallAtDay int
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
	killAt int

	heartbeats uint64
	msgs       uint64
	stalled    atomic.Bool // set once the stall has begun
}

// Proc derives a process fault injector from the profile. Decisions are
// a pure function of (injector seed, name, counter), mirroring Route and
// Writer.
func (in *Injector) Proc(name string, f ProcFaults) *ProcInjector {
	p := &ProcInjector{cfg: f}
	if f.KillAtControlMax > 0 {
		lo := f.KillAtControlMin
		if lo < 1 {
			lo = 1
		}
		hi := f.KillAtControlMax
		if hi < lo {
			hi = lo
		}
		rng := stats.NewRNG(in.seed ^ stats.FNV1a(stats.FNVOffset, name) ^ 0x70726f63) // "proc"
		p.killAt = lo + rng.Intn(hi-lo+1)
	}
	return p
}

// DropHeartbeat reports whether the worker must swallow its next
// heartbeat: every one after the first DropHeartbeatsAfter.
func (p *ProcInjector) DropHeartbeat() bool {
	p.heartbeats++
	return p.cfg.DropHeartbeatsAfter > 0 && p.heartbeats > uint64(p.cfg.DropHeartbeatsAfter)
}

// ControlMessage counts one outbound control message and reports whether
// the kill point has been reached: true means the caller must die NOW
// (SIGKILL itself), before the message leaves the process.
func (p *ProcInjector) ControlMessage() bool {
	p.msgs++
	return p.killAt > 0 && p.msgs == uint64(p.killAt)
}

// DayEnd reports whether the worker wedges at the end of day: true on
// the configured stall day, and the caller then waits until its
// supervisor is gone. Stalled() reports true from then on, so the
// worker's heartbeat loop goes mute alongside — modeling a whole
// wedged process, not just a slow day loop.
func (p *ProcInjector) DayEnd(day int) bool {
	return p.cfg.StallAtDay >= 0 && day == p.cfg.StallAtDay && p.stalled.CompareAndSwap(false, true)
}

// Stalled reports whether the stall fault has triggered.
func (p *ProcInjector) Stalled() bool { return p.stalled.Load() }

// ParseProcFaults parses the compact spec the fraudsupervise CLI and chaos
// tests use to hand a profile to a worker process. Comma-separated
// clauses:
//
//	kill@msg=N        SIGKILL self before the Nth control message
//	kill@msg=A..B     seeded uniform kill index in [A, B]
//	mute-hb@N         drop every heartbeat after the Nth
//	stall@day=D       wedge at the end of day D until the supervisor acts
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
		case ok && key == "stall@day":
			d, err := strconv.Atoi(val)
			if err != nil || d < 0 {
				return f, fmt.Errorf("faultinject: bad stall@day clause %q", clause)
			}
			f.StallAtDay = d
		default:
			return f, fmt.Errorf("faultinject: unknown fault clause %q", clause)
		}
	}
	return f, nil
}
