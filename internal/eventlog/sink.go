package eventlog

import "sync"

// Sink consumes emitted events. Implementations absorb their own
// failures (see Writer's sticky-error contract): emitters on the hot
// path never branch on sink errors.
type Sink interface {
	Append(Event)
}

// BatchSink is the optional bulk extension of Sink: sinks that can take
// a whole day's staged events in one call implement it to amortize
// per-event dispatch. Use AppendAll to deliver through it.
type BatchSink interface {
	AppendBatch([]Event)
}

// AppendAll delivers evs to s in order, through AppendBatch when the sink
// supports it and an Append loop otherwise. The slice is not retained.
func AppendAll(s Sink, evs []Event) {
	if len(evs) == 0 {
		return
	}
	if b, ok := s.(BatchSink); ok {
		b.AppendBatch(evs)
		return
	}
	for i := range evs {
		s.Append(evs[i])
	}
}

// flusher is implemented by sinks that hold appended events in memory
// before writing them out (DirWriter).
type flusher interface {
	Flush() error
}

// SliceSink collects events in memory, for tests and small replays.
type SliceSink struct {
	Events []Event
}

func (s *SliceSink) Append(ev Event) { s.Events = append(s.Events, ev) }

// AppendBatch appends the whole batch in one copy.
func (s *SliceSink) AppendBatch(evs []Event) { s.Events = append(s.Events, evs...) }

// Async decouples emitters from a slow or blocking destination sink: it
// buffers events in a bounded channel drained by one goroutine, and
// drops (rather than blocks) when the buffer is full. This is what
// makes event recording safe on the adserver's request path — a wedged
// log writer costs a request at most one non-blocking channel send.
type Async struct {
	ch      chan Event
	quit    chan struct{}
	done    chan struct{}
	mu      sync.Mutex
	closed  bool
	dropped uint64
}

// NewAsync starts a drain goroutine feeding dst from a buffer of the
// given size. A size of 0 is an unbuffered hand-off: an event is recorded
// only while the drain goroutine is waiting for one. A negative size
// panics.
func NewAsync(dst Sink, buffer int) *Async {
	a := &Async{
		ch:   make(chan Event, buffer),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	go func() {
		defer close(a.done)
		// A destination that buffers (DirWriter) is flushed whenever the
		// queue runs empty, so at low traffic the log on disk does not
		// lag behind the events served. A flush failure is sticky in the
		// destination's own Err, like an append failure.
		fl, _ := dst.(flusher)
		dirty := false
		for quitting := false; ; {
			select {
			case ev := <-a.ch:
				dst.Append(ev)
				dirty = true
				continue
			default:
			}
			if dirty && fl != nil {
				_ = fl.Flush()
			}
			dirty = false
			if quitting {
				return
			}
			select {
			case ev := <-a.ch:
				dst.Append(ev)
				dirty = true
			case <-a.quit:
				// Closed before quit fires, so nothing more is enqueued:
				// drain what was buffered, then exit.
				quitting = true
			}
		}
	}()
	return a
}

// Append enqueues ev without blocking; events beyond the buffer are
// dropped and counted.
func (a *Async) Append(ev Event) {
	a.mu.Lock()
	if a.closed {
		a.dropped++
		a.mu.Unlock()
		return
	}
	select {
	case a.ch <- ev:
	default:
		a.dropped++
	}
	a.mu.Unlock()
}

// Dropped is the number of events discarded because the buffer was full
// or the sink closed.
func (a *Async) Dropped() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dropped
}

// Close stops the drain goroutine after flushing buffered events.
// Appends racing with Close are dropped, never a panic, and Close may be
// called more than once.
func (a *Async) Close() {
	a.mu.Lock()
	if !a.closed {
		a.closed = true
		close(a.quit)
	}
	a.mu.Unlock()
	<-a.done
}
