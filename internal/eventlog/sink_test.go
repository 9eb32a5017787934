package eventlog

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// gateSink delivers events one at a time, each gated on a token, so
// tests control exactly when the drain goroutine makes progress.
type gateSink struct {
	tokens    chan struct{}
	delivered atomic.Uint64
}

func (g *gateSink) Append(Event) {
	<-g.tokens
	g.delivered.Add(1)
}

// TestAsyncZeroBufferHandsOff: a size of 0 queues nothing. Once the drain
// goroutine has taken an event and is blocked delivering it, the next
// Append is dropped rather than held for it.
func TestAsyncZeroBufferHandsOff(t *testing.T) {
	gate := &gateSink{tokens: make(chan struct{})}
	a := NewAsync(gate, 0)
	ev := Event{Type: TypeAdModified}
	// An unbuffered hand-off lands only while the drain waits in its
	// select, so retry until one does.
	for {
		d := a.Dropped()
		a.Append(ev)
		if a.Dropped() == d {
			break
		}
		runtime.Gosched()
	}
	for len(a.ch) > 0 { // the drain has the event and blocks in the sink
		runtime.Gosched()
	}
	d := a.Dropped()
	a.Append(ev)
	if got := a.Dropped(); got != d+1 {
		t.Fatalf("Append while the drain is busy: dropped %d -> %d, want one more (nothing queued)", d, got)
	}
	close(gate.tokens)
	a.Close()
	if got := gate.delivered.Load(); got != 1 {
		t.Fatalf("delivered %d events, want the 1 handed off", got)
	}
}

// TestAsyncExactDropAccounting floods a throttled sink from many
// concurrent producers and checks the books balance to the event:
// delivered + dropped must equal produced exactly — no double counts, no
// silent losses.
func TestAsyncExactDropAccounting(t *testing.T) {
	const (
		producers = 8
		perProd   = 500
		buffer    = 16
	)
	gate := &gateSink{tokens: make(chan struct{}, producers*perProd)}
	a := NewAsync(gate, buffer)

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				if i%7 == 0 {
					// Let the drain goroutine advance sometimes so both
					// the delivered and dropped paths are exercised.
					gate.tokens <- struct{}{}
				}
				a.Append(Event{Type: TypeAdModified, Day: int32(p), Account: int32(i)})
			}
		}(p)
	}
	wg.Wait()
	// Unblock everything still buffered, then flush.
	for i := 0; i < buffer+1; i++ {
		gate.tokens <- struct{}{}
	}
	a.Close()

	produced := uint64(producers * perProd)
	delivered := gate.delivered.Load()
	dropped := a.Dropped()
	if delivered+dropped != produced {
		t.Fatalf("accounting leak: delivered %d + dropped %d != produced %d", delivered, dropped, produced)
	}
	if dropped == 0 {
		t.Fatal("test never exercised the drop path; shrink the buffer")
	}
	if delivered == 0 {
		t.Fatal("test never exercised the delivery path")
	}
}

// TestAsyncCloseWithinFlushes is the happy path: Close flushes a live
// sink fully, and once closed, appends drop instead of panicking and a
// second Close stays safe.
func TestAsyncCloseWithinFlushes(t *testing.T) {
	var got SliceSink
	a := NewAsync(&got, 64)
	for i := 0; i < 20; i++ {
		a.Append(Event{Type: TypeAdModified, Day: int32(i), Account: 1})
	}
	a.Close()
	if len(got.Events) != 20 {
		t.Fatalf("flushed %d events, want 20", len(got.Events))
	}
	a.Append(Event{Type: TypeAdModified})
	a.Close()
	if len(got.Events) != 20 || a.Dropped() != 1 {
		t.Fatalf("after Close: %d events delivered, %d dropped; want 20 and 1", len(got.Events), a.Dropped())
	}
}
