package supervise

import (
	"io"
	"os"
	"os/exec"
	"sync"
)

// ExecSpawner launches real worker subprocesses with os/exec — the
// production Spawner. The worker flags follow BaseArgs on the command
// line: ["worker"] for the fraudsupervise binary's subcommand, or
// ["-test.run=TestWorkerChild$", "--"] for a test binary re-executing
// itself as a worker (its flag parser stops at "--" and hands the rest
// over as flag.Args()).
type ExecSpawner struct {
	// Command is the executable to run (e.g. os.Args[0] or the
	// fraudsupervise binary path).
	Command string
	// BaseArgs precede the worker flags in argv.
	BaseArgs []string
	// Stderr receives worker stderr (defaults to os.Stderr). A killed
	// incarnation's copier goroutine can outlive the spawn of the next,
	// so Spawn serializes the writes — callers may pass a plain
	// strings.Builder.
	Stderr io.Writer

	stderrMu sync.Mutex
}

// lockedWriter serializes concurrent worker-stderr copies onto one
// shared writer. *os.File writers are exempted by Spawn: handing the
// child the fd directly avoids a copier goroutine entirely.
type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (lw lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

func (es *ExecSpawner) Spawn(sp WorkerSpec) (Proc, error) {
	cmd := exec.Command(es.Command, es.BaseArgs...)
	cmd.Args = append(cmd.Args, sp.Args()...)
	switch w := es.Stderr.(type) {
	case nil:
		cmd.Stderr = os.Stderr
	case *os.File:
		cmd.Stderr = w
	default:
		cmd.Stderr = lockedWriter{mu: &es.stderrMu, w: w}
	}

	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		stdin.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		stdin.Close()
		return nil, err
	}
	return &execProc{cmd: cmd, stdin: stdin, stdout: stdout}, nil
}

// execProc holds the worker's stdin open and never writes to it: the
// worker reads its EOF as "the supervisor is gone".
type execProc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout io.Reader

	killOnce sync.Once
	waitOnce sync.Once
	waitErr  error
}

func (p *execProc) Output() io.Reader { return p.stdout }
func (p *execProc) PID() int          { return p.cmd.Process.Pid }

// Kill delivers SIGKILL — the crash model under test is abrupt death,
// not graceful shutdown.
func (p *execProc) Kill() {
	p.killOnce.Do(func() { p.cmd.Process.Kill() })
}

// Wait reaps the child. Callers drain Output first (Wait closes the
// stdout pipe). Idempotent so supervisor and shutdown paths can race.
func (p *execProc) Wait() error {
	p.waitOnce.Do(func() {
		p.waitErr = p.cmd.Wait()
		p.stdin.Close()
	})
	return p.waitErr
}
