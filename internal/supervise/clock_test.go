package supervise

import (
	"slices"
	"sync"
	"time"
)

// fakeClock is the package tests' virtual time. It never moves on its
// own, only in three ways:
//   - wait, by a stalled worker, steps it from one ticker deadline to
//     the next, handing each tick over before taking the next step, so
//     the supervisor judges the silence tick by tick;
//   - afterFunc jumps it straight to the respawn timer's deadline;
//   - advance, called by the pipeSpawner for each day report it reads,
//     moves it by a fixed step, so time passes between day reports.
type fakeClock struct {
	mu      sync.Mutex
	t       time.Time
	tickers []*fakeTicker
}

type fakeTicker struct {
	c     chan time.Time
	every time.Duration
	next  time.Time
	stop  chan struct{}
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(0, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) ticker(d time.Duration) (<-chan time.Time, func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tk := &fakeTicker{c: make(chan time.Time, 1), every: d, next: c.t.Add(d), stop: make(chan struct{})}
	c.tickers = append(c.tickers, tk)
	return tk.c, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if i := slices.Index(c.tickers, tk); i >= 0 {
			c.tickers = slices.Delete(c.tickers, i, i+1)
			close(tk.stop)
		}
	}
}

// advance moves time forward by d. Each ticker due on the way fires
// once, and a tick its receiver has not yet taken is dropped, as
// time.Ticker drops it.
func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
	for _, tk := range c.tickers {
		if tk.next.After(c.t) {
			continue
		}
		select {
		case tk.c <- c.t:
		default:
		}
		for !tk.next.After(c.t) {
			tk.next = tk.next.Add(tk.every)
		}
	}
}

func (c *fakeClock) afterFunc(d time.Duration, f func()) {
	c.advance(d)
	go f()
}

// wait steps time to the next ticker deadline until ch closes. A tick
// is never dropped here: the step waits until every due ticker's
// receiver has room for it.
func (c *fakeClock) wait(ch <-chan struct{}) {
	for {
		c.mu.Lock()
		if len(c.tickers) == 0 {
			c.mu.Unlock()
			<-ch
			return
		}
		next := c.tickers[0].next
		for _, tk := range c.tickers[1:] {
			if tk.next.Before(next) {
				next = tk.next
			}
		}
		c.t = next
		var due []*fakeTicker
		for _, tk := range c.tickers {
			if !tk.next.After(next) {
				due = append(due, tk)
				tk.next = tk.next.Add(tk.every)
			}
		}
		c.mu.Unlock()
		for _, tk := range due {
			select {
			case tk.c <- next:
			case <-tk.stop:
			case <-ch:
				return
			}
		}
	}
}
