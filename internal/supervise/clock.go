package supervise

import "time"

// clock is the time source of the supervisor loop and the in-process
// worker: wall time in production, virtual time in the package tests,
// so a supervised run's decisions there are a function of its seed and
// fault profile. ExecSpawner's children always run on wall time.
type clock interface {
	now() time.Time
	// ticker delivers the time on its channel every d until stopped.
	ticker(d time.Duration) (c <-chan time.Time, stop func())
	// afterFunc calls f in its own goroutine once d has passed.
	afterFunc(d time.Duration, f func())
	// wait blocks until ch closes.
	wait(ch <-chan struct{})
}

type wallClock struct{}

func (wallClock) now() time.Time { return time.Now() }

func (wallClock) ticker(d time.Duration) (<-chan time.Time, func()) {
	t := time.NewTicker(d)
	return t.C, t.Stop
}

func (wallClock) afterFunc(d time.Duration, f func()) { time.AfterFunc(d, f) }

func (wallClock) wait(ch <-chan struct{}) { <-ch }
