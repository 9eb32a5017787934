// Command logtool inspects append-only event logs written by the
// fraudsim simulator and the adserver (-eventlog flags).
//
// Usage:
//
//	logtool stat PATH...
//	logtool cat [-json] [-from N] [-to N] [-type NAME[,NAME...]] PATH...
//	logtool verify [-q] PATH...
//	logtool repair [-dry-run] DIR...
//	logtool ckpt FILE...
//
// Each PATH is either a log directory (its events-*.evlog segments are
// read in write order) or a single segment file. repair takes log
// directories only; ckpt takes FRSNAP checkpoint files.
//
//	stat    per-type record counts, day range, bytes, segment count
//	cat     print matching records, one per line (-json for JSON lines)
//	verify  walk every frame, checking CRCs and record encodings; on
//	        damage, report the last CRC-valid byte offset and exit 1
//	repair  recover a crash-torn log directory: truncate the torn tail
//	        to the last valid frame, finalize the unsealed segment, and
//	        rewrite the manifest (-dry-run reports without touching it)
//	ckpt    inspect checkpoint files — a lineage like run.frsnap
//	        run.frsnap.1 run.frsnap.2, or a quarantined
//	        *.corrupt — printing version, day, log position, and CRC
//	        state per file; exit 1 if any is invalid or unreadable
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/eventlog"
	"repro/internal/sim"
	"repro/internal/simclock"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the testable entry point: dispatch a subcommand over log paths.
func run(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return usageError()
	}
	switch cmd, rest := args[0], args[1:]; cmd {
	case "stat":
		return runStat(rest, stdout, stderr)
	case "cat":
		return runCat(rest, stdout, stderr)
	case "verify":
		return runVerify(rest, stdout, stderr)
	case "repair":
		return runRepair(rest, stdout, stderr)
	case "ckpt":
		return runCkpt(rest, stdout, stderr)
	default:
		return fmt.Errorf("logtool: unknown command %q\n\n%s", cmd, usage)
	}
}

const usage = `usage:
  logtool stat PATH...
  logtool cat [-json] [-from N] [-to N] [-type NAME[,NAME...]] PATH...
  logtool verify [-q] PATH...
  logtool repair [-dry-run] DIR...
  logtool ckpt FILE...`

func usageError() error { return fmt.Errorf("logtool: no command\n\n%s", usage) }

// resolve expands each path into its segment files: directories become
// their sorted events-*.evlog segments, files pass through as-is.
func resolve(paths []string) ([]string, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("logtool: no log paths given\n\n%s", usage)
	}
	var out []string
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return nil, fmt.Errorf("logtool: %w", err)
		}
		if !fi.IsDir() {
			out = append(out, p)
			continue
		}
		segs, err := eventlog.Segments(p)
		if err != nil {
			return nil, fmt.Errorf("logtool: %w", err)
		}
		if len(segs) == 0 {
			return nil, fmt.Errorf("logtool: no segment files in %s", p)
		}
		out = append(out, segs...)
	}
	return out, nil
}

// filterFlags registers the shared -from/-to/-type filter flags on fs
// and returns a closure resolving them into a Filter after parsing.
func filterFlags(fs *flag.FlagSet) func() (eventlog.Filter, error) {
	from := fs.Int("from", 0, "first day of the window (with -to)")
	to := fs.Int("to", 0, "first day past the window; to <= from means unbounded")
	types := fs.String("type", "", "comma-separated event type names to keep (empty = all)")
	return func() (eventlog.Filter, error) {
		f := eventlog.Filter{From: simclock.Day(*from), To: simclock.Day(*to)}
		if *types == "" {
			return f, nil
		}
		for _, name := range strings.Split(*types, ",") {
			t, ok := eventlog.ParseType(strings.TrimSpace(name))
			if !ok {
				return f, fmt.Errorf("logtool: unknown event type %q (want one of %s)",
					name, typeNameList())
			}
			f.Types |= eventlog.TypeMask(t)
		}
		return f, nil
	}
}

func typeNameList() string {
	names := make([]string, 0, len(eventlog.Types()))
	for _, t := range eventlog.Types() {
		names = append(names, t.String())
	}
	return strings.Join(names, ", ")
}

func runStat(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("logtool stat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return err
	}
	paths, err := resolve(fs.Args())
	if err != nil {
		return err
	}

	var (
		events         uint64
		minDay, maxDay int32
		counts         = map[eventlog.Type]uint64{}
	)
	err = eventlog.ScanFiles(paths, eventlog.Filter{}, func(ev *eventlog.Event) error {
		if events == 0 || ev.Day < minDay {
			minDay = ev.Day
		}
		if events == 0 || ev.Day > maxDay {
			maxDay = ev.Day
		}
		counts[ev.Type]++
		events++
		return nil
	})
	if err != nil {
		return fmt.Errorf("logtool: %w", err)
	}
	var bytes int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return fmt.Errorf("logtool: %w", err)
		}
		bytes += fi.Size()
	}

	fmt.Fprintf(stdout, "segments  %d\n", len(paths))
	fmt.Fprintf(stdout, "bytes     %d\n", bytes)
	fmt.Fprintf(stdout, "events    %d\n", events)
	if events > 0 {
		fmt.Fprintf(stdout, "days      %d..%d\n", minDay, maxDay)
	}
	for _, t := range eventlog.Types() {
		if n := counts[t]; n > 0 {
			fmt.Fprintf(stdout, "  %-16s %10d\n", t, n)
		}
	}
	return nil
}

// jsonEvent is the cat -json record shape: the event with its type
// spelled out and the unencoded zero fields elided.
type jsonEvent struct {
	Type     string  `json:"type"`
	Day      int32   `json:"day"`
	Account  int32   `json:"account"`
	At       float64 `json:"at,omitempty"`
	Vertical int32   `json:"vertical,omitempty"`
	Country  string  `json:"country,omitempty"`
	Position int32   `json:"position,omitempty"`
	Match    uint8   `json:"match,omitempty"`
	Stage    uint8   `json:"stage,omitempty"`
	Flags    uint8   `json:"flags,omitempty"`
	Amount   float64 `json:"amount,omitempty"`
	N        int32   `json:"n,omitempty"`
	Reason   string  `json:"reason,omitempty"`
}

func runCat(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("logtool cat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "print records as JSON lines")
	filter := filterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := filter()
	if err != nil {
		return err
	}
	paths, err := resolve(fs.Args())
	if err != nil {
		return err
	}

	enc := json.NewEncoder(stdout)
	err = eventlog.ScanFiles(paths, f, func(ev *eventlog.Event) error {
		if *asJSON {
			return enc.Encode(jsonEvent{
				Type: ev.Type.String(), Day: ev.Day, Account: ev.Account,
				At: ev.At, Vertical: ev.Vertical, Country: ev.Country,
				Position: ev.Position, Match: ev.Match, Stage: ev.Stage,
				Flags: ev.Flags, Amount: ev.Amount, N: ev.N, Reason: ev.Reason,
			})
		}
		_, err := fmt.Fprintln(stdout, formatEvent(ev))
		return err
	})
	if err != nil {
		return fmt.Errorf("logtool: %w", err)
	}
	return nil
}

// formatEvent renders one record as a human-readable line.
func formatEvent(ev *eventlog.Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "day %4d  acct %6d  %-16s", ev.Day, ev.Account, ev.Type)
	switch ev.Type {
	case eventlog.TypeAccountCreated:
		fmt.Fprintf(&b, " country=%s vertical=%d gen=%d flags=%#x", ev.Country, ev.Vertical, ev.N, ev.Flags)
	case eventlog.TypeReregistration:
		fmt.Fprintf(&b, " gen=%d", ev.N)
	case eventlog.TypeAdCreated:
		fmt.Fprintf(&b, " vertical=%d", ev.Vertical)
	case eventlog.TypeBidPlaced:
		fmt.Fprintf(&b, " match=%d amount=%.3f", ev.Match, ev.Amount)
	case eventlog.TypeImpression:
		fmt.Fprintf(&b, " country=%s vertical=%d pos=%d match=%d flags=%#x", ev.Country, ev.Vertical, ev.Position, ev.Match, ev.Flags)
		if ev.Flags&eventlog.FlagClicked != 0 {
			fmt.Fprintf(&b, " cpc=%.3f", ev.Amount)
		}
	case eventlog.TypeDetection:
		fmt.Fprintf(&b, " stage=%d reason=%q", ev.Stage, ev.Reason)
	}
	return b.String()
}

func runVerify(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("logtool verify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quiet := fs.Bool("q", false, "print only damaged segments")
	if err := fs.Parse(args); err != nil {
		return err
	}
	paths, err := resolve(fs.Args())
	if err != nil {
		return err
	}

	// Every segment is walked to its end even after another is found
	// damaged, so one bad file does not hide the state of the rest.
	bad := 0
	for _, p := range paths {
		frames, valid, err := verifyFile(p)
		if err != nil {
			bad++
			fmt.Fprintf(stdout, "%s: CORRUPT after %d good frames, last valid byte offset %d: %v\n",
				p, frames, valid, err)
			continue
		}
		if !*quiet {
			fmt.Fprintf(stdout, "%s: ok (%d frames, %d bytes)\n", p, frames, valid)
		}
	}
	if bad > 0 {
		return fmt.Errorf("logtool: %d of %d segments corrupt", bad, len(paths))
	}
	return nil
}

// verifyFile decodes every frame in one segment, returning how many
// were intact, the offset just past the last valid frame, and the first
// damage encountered.
func verifyFile(path string) (uint64, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	r := eventlog.NewReader(f, eventlog.Filter{})
	var ev eventlog.Event
	for {
		switch err := r.Next(&ev); err {
		case nil:
		case io.EOF:
			return r.Frames(), r.Offset(), nil
		default:
			return r.Frames(), r.Offset(), err
		}
	}
}

func runRepair(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("logtool repair", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dryRun := fs.Bool("dry-run", false, "report what repair would do without changing any bytes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	dirs := fs.Args()
	if len(dirs) == 0 {
		return fmt.Errorf("logtool: no log directories given\n\n%s", usage)
	}
	needed := 0
	for _, dir := range dirs {
		fi, err := os.Stat(dir)
		if err != nil {
			return fmt.Errorf("logtool: %w", err)
		}
		if !fi.IsDir() {
			return fmt.Errorf("logtool: repair works on log directories, %s is a file", dir)
		}
		rep, err := eventlog.RecoverDir(dir, !*dryRun)
		if rep != nil {
			printReport(stdout, rep, *dryRun)
		}
		if err != nil {
			return fmt.Errorf("logtool: %w", err)
		}
		if !rep.Healthy {
			needed++
		}
	}
	if *dryRun && needed > 0 {
		return fmt.Errorf("logtool: %d of %d directories need repair (dry run, nothing changed)", needed, len(dirs))
	}
	return nil
}

// runCkpt triages FRSNAP checkpoint files: the disaster-recovery
// runbook's first move when a resume refuses a lineage is to see which
// generations are intact without gob-decoding anything by hand. Every
// path is reported on a line of its own, even after one is found bad or
// cannot be read; any invalid or unreadable file makes the command exit
// nonzero.
func runCkpt(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("logtool ckpt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return err
	}
	paths := fs.Args()
	if len(paths) == 0 {
		return fmt.Errorf("logtool: no checkpoint files given\n\n%s", usage)
	}
	bad := 0
	for _, p := range paths {
		info, err := sim.InspectCheckpoint(p)
		if err != nil {
			bad++
			fmt.Fprintf(stdout, "%s: UNREADABLE: %v\n", p, err)
			continue
		}
		if !info.Valid {
			bad++
			if info.Version < 0 {
				fmt.Fprintf(stdout, "%s: CORRUPT (%d bytes, not a checkpoint): %s\n", p, info.Bytes, info.Err)
			} else {
				fmt.Fprintf(stdout, "%s: CORRUPT (%d bytes, version %d): %s\n", p, info.Bytes, info.Version, info.Err)
			}
			continue
		}
		fmt.Fprintf(stdout, "%s: ok (version %d, %d bytes)  day %d/%d  log segment %d, %d events  seed %d\n",
			p, info.Version, info.Bytes, info.Day, info.Days,
			info.Log.NextSegment, info.Log.Events, info.Seed)
	}
	if bad > 0 {
		return fmt.Errorf("logtool: %d of %d checkpoint files invalid or unreadable", bad, len(paths))
	}
	return nil
}

// printReport renders a RecoverDir report, one line per segment plus a
// summary.
func printReport(w io.Writer, rep *eventlog.Report, dryRun bool) {
	would := ""
	if dryRun {
		would = "would be "
	}
	for _, sr := range rep.Segments {
		var actions []string
		if sr.Truncated {
			actions = append(actions, fmt.Sprintf("%struncated %d -> %d bytes", would, sr.Bytes, sr.Valid))
		}
		if sr.Removed {
			actions = append(actions, would+"removed (no complete frames)")
		} else if sr.Finalized {
			actions = append(actions, would+"finalized")
		}
		if sr.ManifestMismatch != "" {
			actions = append(actions, sr.ManifestMismatch)
		}
		if len(actions) == 0 {
			fmt.Fprintf(w, "  %s: ok (%d frames, %d bytes)\n", sr.Name, sr.Frames, sr.Bytes)
			continue
		}
		fmt.Fprintf(w, "  %s: %d good frames; %s\n", sr.Name, sr.Frames, strings.Join(actions, "; "))
	}
	fmt.Fprintln(w, rep.String())
}
