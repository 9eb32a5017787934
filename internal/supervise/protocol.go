package supervise

// The worker→supervisor protocol: JSON lines on the worker's standard
// output; stderr stays free for human-readable logs. The supervisor
// sends nothing — it holds the worker's stdin open only so the worker
// sees EOF the moment its supervisor dies, and exits rather than
// simulating for nobody. Pipes rather than sockets keep the failure
// model honest — a SIGKILLed worker's pipe closes exactly when the
// process dies, there is no half-open TCP state to age out — and make
// every path testable with io.Pipe.
//
//	hello  first message after spawn: pid, next day to run
//	hb     periodic heartbeat: current day
//	day    day report: simulated day Day is complete
//	done   run complete: collector digest + event count, log closed
//	fatal  unrecoverable worker error (deterministic; not retried)
//
// A restarted worker replays days it already reported; the supervisor
// keeps progress as a monotone maximum, so re-reports are harmless.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Message type tags.
const (
	MsgHello = "hello"
	MsgHB    = "hb"
	MsgDay   = "day"
	MsgDone  = "done"
	MsgFatal = "fatal"
)

// Msg is one protocol message; unused fields are elided on the wire.
type Msg struct {
	T      string `json:"t"`
	Day    int    `json:"day,omitempty"`
	PID    int    `json:"pid,omitempty"`
	Events uint64 `json:"events,omitempty"`
	Digest string `json:"digest,omitempty"`
	Err    string `json:"err,omitempty"`
}

// msgWriter serializes messages onto one stream from several goroutines
// (the worker's day loop and its heartbeat ticker share stdout). The
// optional beforeSend hook sees every outbound message — the fault
// injector's kill-at-Nth-control-message profile lives there.
type msgWriter struct {
	mu         sync.Mutex
	enc        *json.Encoder
	beforeSend func(Msg)
}

func newMsgWriter(w io.Writer) *msgWriter {
	return &msgWriter{enc: json.NewEncoder(w)}
}

// send writes one message as a JSON line. Encode errors are returned so
// a worker notices its supervisor is gone (EPIPE) and exits instead of
// simulating into the void.
func (mw *msgWriter) send(m Msg) error {
	mw.mu.Lock()
	defer mw.mu.Unlock()
	if mw.beforeSend != nil {
		mw.beforeSend(m)
	}
	return mw.enc.Encode(m)
}

// readMsgs decodes messages from r until EOF or a decode error, passing
// each to fn; it always returns the terminal error (io.EOF for a clean
// close). Oversized or malformed lines are an error, not a panic: the
// supervisor treats a babbling worker like a dead one.
func readMsgs(r io.Reader, fn func(Msg)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var m Msg
		if err := json.Unmarshal(line, &m); err != nil {
			return fmt.Errorf("supervise: bad protocol line %q: %w", truncLine(line), err)
		}
		fn(m)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return io.EOF
}

func truncLine(b []byte) string {
	if len(b) > 120 {
		b = b[:120]
	}
	return string(b)
}
