package eventlog

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faultinject"
)

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func bufEvent(i int) Event {
	return Event{Type: TypeImpression, Day: int32(i), Account: int32(i % 5), Country: "US", Position: 1}
}

// TestDirWriterFlushFaultAccounting kills the segment file's writes at
// the k-th flush under each sync policy. Frames the failed flush held
// were already counted in Events; they must move to Dropped so the books
// still balance, the error must stay sticky, and nothing the manifest or
// Events claims may be missing from disk.
func TestDirWriterFlushFaultAccounting(t *testing.T) {
	const attempts = 20000 // ≈ 5 buffers of ≈ 16-byte frames
	for _, policy := range []SyncPolicy{SyncNone, SyncRotate, SyncInterval} {
		// With 100 KiB segments, odd flushes are buffer-full flushes
		// inside Append and even ones a seal's, so the kill points cover
		// both shapes; under SyncInterval the 48 KiB stride's flushes
		// come in between.
		for _, kill := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("policy%d/kill%d", policy, kill), func(t *testing.T) {
				dir := t.TempDir()
				dw, err := NewDirWriter(dir)
				if err != nil {
					t.Fatal(err)
				}
				dw.Sync = policy
				dw.segmentBytes = 100 << 10
				dw.syncBytes = 48 << 10
				// One fault profile across all segment files: its write
				// counter keeps running through rotations.
				var file *os.File
				faulty := faultinject.New(uint64(kill)).Writer("seg",
					writerFunc(func(p []byte) (int, error) { return file.Write(p) }),
					faultinject.WriteFaults{KillAfterWrites: kill})
				dw.wrapFile = func(f *os.File) io.Writer {
					file = f
					return faulty
				}
				var failedAt uint64
				for i := 0; i < attempts; i++ {
					dw.Append(bufEvent(i))
					if dw.Err() != nil && failedAt == 0 {
						failedAt = uint64(i) + 1
					}
				}
				if !errors.Is(dw.Err(), faultinject.ErrInjectedCrash) {
					t.Fatalf("Err = %v, want the injected crash", dw.Err())
				}
				if got := dw.Events() + dw.Dropped(); got != attempts {
					t.Fatalf("Events %d + Dropped %d = %d, want %d attempts", dw.Events(), dw.Dropped(), got, attempts)
				}
				if lost := failedAt - dw.Events(); lost < 2 {
					t.Fatalf("failure surfaced at append %d with %d events kept: the flush held no frames, test is vacuous", failedAt, dw.Events())
				}
				if err := dw.Close(); !errors.Is(err, faultinject.ErrInjectedCrash) {
					t.Fatalf("Close = %v, want the sticky error", err)
				}

				// Every sealed segment is exactly what its manifest entry
				// says, byte for byte.
				var sealedEvents, sealedBytes uint64
				if m, err := ReadManifest(dir); err != nil {
					t.Fatal(err)
				} else if m != nil {
					for _, s := range m.Segments {
						b, err := os.ReadFile(filepath.Join(dir, s.Name))
						if err != nil {
							t.Fatal(err)
						}
						if uint64(len(b)) != s.Bytes || crc32.Checksum(b, castagnoli) != s.CRC32C {
							t.Fatalf("manifest entry %+v does not describe %s (%d bytes)", s, s.Name, len(b))
						}
						sealedEvents += s.Events
						sealedBytes += s.Bytes
					}
				}
				if sealedEvents > dw.Events() || sealedBytes > dw.Bytes() {
					t.Fatalf("manifest claims %d events / %d bytes, writer only %d / %d", sealedEvents, sealedBytes, dw.Events(), dw.Bytes())
				}

				// What Events counts is on disk: recovery yields at least
				// that many events (the torn write's prefix may add whole
				// frames), in append order.
				if _, err := RecoverDir(dir, true); err != nil {
					t.Fatal(err)
				}
				n := 0
				if err := ScanDir(dir, Filter{}, func(ev *Event) error {
					if int(ev.Day) != n {
						return fmt.Errorf("event %d carries day %d", n, ev.Day)
					}
					n++
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if uint64(n) < dw.Events() || uint64(n) >= failedAt {
					t.Fatalf("recovered %d events; writer counted %d kept, failed at append %d", n, dw.Events(), failedAt)
				}
			})
		}
	}
}

// TestRecoverAbandonedBuffers is the SIGKILL shape: a DirWriter that has
// filled several buffers is abandoned with no Flush and no Close.
// RecoverDir must heal the directory to a strict, CRC-valid prefix of
// what was appended, missing at most one buffer.
func TestRecoverAbandonedBuffers(t *testing.T) {
	dir := t.TempDir()
	dw, err := NewDirWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for dw.Bytes() < 3*BufferBytes+BufferBytes/2 {
		dw.Append(bufEvent(i))
		i++
	}
	if err := dw.Err(); err != nil {
		t.Fatal(err)
	}
	appended, bytes := i, dw.Bytes()

	rep, err := RecoverDir(dir, true)
	if err != nil || !rep.Applied {
		t.Fatalf("repair: %+v (%v)", rep, err)
	}
	if rep2, err := RecoverDir(dir, false); err != nil || !rep2.Healthy {
		t.Fatalf("repaired log not healthy: %+v (%v)", rep2, err)
	}
	n := 0
	if err := ScanDir(dir, Filter{}, func(ev *Event) error {
		if *ev != bufEvent(n) {
			return fmt.Errorf("event %d is %+v", n, *ev)
		}
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n >= appended {
		t.Fatalf("recovered all %d events: nothing was buffered, test is vacuous", n)
	}
	var kept uint64
	for _, sr := range rep.Segments {
		kept += uint64(sr.Valid)
	}
	if kept+BufferBytes < bytes {
		t.Fatalf("recovered %d of %d bytes: more than one buffer (%d) missing", kept, bytes, BufferBytes)
	}
}

// TestDirWriterAppendAllocFree pins the steady-state append path — frame
// into the buffer, flush when full — at zero allocations.
func TestDirWriterAppendAllocFree(t *testing.T) {
	dw, err := NewDirWriter(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dw.Close()
	i := 0
	for ; i < 100; i++ { // open the segment, intern "US", size the scratch
		dw.Append(bufEvent(i))
	}
	// Enough runs to cross several buffer flushes, none to reach a rotation.
	if avg := testing.AllocsPerRun(3*BufferBytes/16, func() {
		dw.Append(bufEvent(i))
		i++
	}); avg != 0 {
		t.Fatalf("DirWriter.Append allocates %.2f times per event", avg)
	}
	if err := dw.Err(); err != nil {
		t.Fatal(err)
	}
}

// flushSignal is a DirWriter whose Flush reports each completion, so a
// test can wait for the Async drain goroutine's idle flush instead of
// sleeping.
type flushSignal struct {
	*DirWriter
	flushed chan struct{}
}

func (f flushSignal) Flush() error {
	err := f.DirWriter.Flush()
	f.flushed <- struct{}{}
	return err
}

// TestAsyncIdleFlush: once an Async's queue runs empty, everything it
// delivered must be readable from the live .tmp segment — the adserver
// at low traffic — without Close.
func TestAsyncIdleFlush(t *testing.T) {
	dir := t.TempDir()
	dw, err := NewDirWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	dst := flushSignal{dw, make(chan struct{}, 64)} // never fuller than one signal per event
	a := NewAsync(dst, 64)
	const n = 25
	for i := 0; i < n; i++ {
		a.Append(bufEvent(i))
	}
	deadline := time.After(10 * time.Second)
	for seen := 0; seen < n; {
		select {
		case <-dst.flushed:
		case <-deadline:
			t.Fatalf("idle Async left frames buffered: %d of %d events on disk", seen, n)
		}
		seen = 0
		tmp := filepath.Join(dir, fmt.Sprintf(SegmentPattern, 0)+TmpSuffix)
		if err := ScanFiles([]string{tmp}, Filter{}, func(*Event) error { seen++; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
}

// wedgedFlush accepts appends but never returns from Flush.
type wedgedFlush struct {
	SliceSink
	entered chan struct{}
	wedge   chan struct{}
}

func (w *wedgedFlush) Flush() error {
	close(w.entered)
	<-w.wedge
	return nil
}

// TestAsyncWedgedFlush: a destination stuck inside Flush costs emitters
// nothing but drops.
func TestAsyncWedgedFlush(t *testing.T) {
	dst := &wedgedFlush{entered: make(chan struct{}), wedge: make(chan struct{})}
	a := NewAsync(dst, 4)
	a.Append(bufEvent(0))
	<-dst.entered // the drain goroutine is now wedged in the idle flush

	done := make(chan struct{})
	go func() {
		for i := 1; i <= 100; i++ {
			a.Append(bufEvent(i))
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Append blocked behind a wedged Flush")
	}
	if got := a.Dropped(); got != 96 {
		t.Fatalf("dropped %d events, want 96 (100 offered to a queue of 4)", got)
	}
}

// BenchmarkDirWriterSyncPolicy measures append throughput to a real log
// directory under each durability policy, with segments small enough
// that rotation (and its fsyncs, where the policy orders them) happens
// continually.
func BenchmarkDirWriterSyncPolicy(b *testing.B) {
	for _, bc := range []struct {
		name   string
		policy SyncPolicy
	}{
		{"none", SyncNone},
		{"rotate", SyncRotate},
		{"interval", SyncInterval},
	} {
		b.Run(bc.name, func(b *testing.B) {
			dw, err := NewDirWriter(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			dw.Sync = bc.policy
			dw.segmentBytes = 256 << 10
			dw.syncBytes = 64 << 10
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dw.Append(bufEvent(i))
			}
			b.StopTimer()
			if err := dw.Close(); err != nil {
				b.Fatal(err)
			}
			if dw.Dropped() != 0 {
				b.Fatalf("%d events dropped", dw.Dropped())
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
