// Package cli carries the scaffolding every cmd/* tool shares: the
// main-function exit protocol, flag-set construction, app-name validation
// against the registered mini-applications, JSON snapshot writing, and
// tabwriter-based report tables.  The five front ends (nvscavenger,
// nvreport, nvpower, nvperf, nvtrace) are thin run(args, out) functions on
// top of it, which keeps them unit-testable: tests call run directly with
// a bytes.Buffer and never touch os.Exit.
package cli

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"text/tabwriter"

	"nvscavenger/internal/apps"
	"nvscavenger/internal/obs"
)

// Main runs a tool's run function with the standard exit protocol: errors
// go to stderr prefixed with the tool name, and the process exits 1.
func Main(name string, run func(args []string, out io.Writer) error) {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, name+":", err)
		os.Exit(1)
	}
}

// NewFlagSet returns the tools' standard flag set: ContinueOnError, so a
// bad flag surfaces as an error from run instead of killing the process.
func NewFlagSet(name string) *flag.FlagSet {
	return flag.NewFlagSet(name, flag.ContinueOnError)
}

// AppList names the registered applications, comma separated, for flag
// usage strings and error messages.
func AppList() string {
	return strings.Join(apps.Names(), ", ")
}

// ValidateApp checks that name is a registered application.
func ValidateApp(name string) error {
	for _, n := range apps.Names() {
		if n == name {
			return nil
		}
	}
	return fmt.Errorf("unknown app %q (have %s)", name, AppList())
}

// RequireApp validates the -app flag value: empty prints the flag set's
// usage and reports which apps exist; unknown names are rejected before
// any work starts.
func RequireApp(fs *flag.FlagSet, name string) error {
	if name == "" {
		fs.Usage()
		return fmt.Errorf("missing -app (one of %s)", AppList())
	}
	return ValidateApp(name)
}

// ValidateScale checks the -scale flag value: the problem scale must be a
// finite positive number.  Without the check a NaN or non-positive scale
// falls through to the apps and the session, which either ignore it or
// size a run from it.
func ValidateScale(scale float64) error {
	if math.IsNaN(scale) || math.IsInf(scale, 0) || scale <= 0 {
		return fmt.Errorf("-scale %v must be a finite positive number", scale)
	}
	return nil
}

// WriteJSONFile creates path and hands the file to write (typically a
// snapshot's WriteJSON), closing it on every path; the tools' -json,
// -metrics and -memprofile files are all written through it.  The write
// error takes precedence over the close error — a failed write usually
// makes the close fail too, and the first cause is the one worth reporting.
func WriteJSONFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// EncodeJSON writes v to w in the tools' standard JSON rendering:
// two-space indentation and a trailing newline, the same bytes for the
// same value on every frontend.  Both the nvserved HTTP responses and the
// CLI -json files route through it, so the versioned job/result payloads
// (experiments.JobSpec, experiments.JobResult) are byte-identical across
// transports.
func EncodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return fmt.Errorf("encoding JSON: %w", err)
	}
	return nil
}

// EncodeCompactJSON writes v as a single JSON line with a trailing
// newline — the NDJSON record format of the nvserved event stream.
func EncodeCompactJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		return fmt.Errorf("encoding JSON: %w", err)
	}
	return nil
}

// WriteValueJSONFile writes v to path via EncodeJSON; the -json flag
// implementation for tools whose payload is a plain value rather than a
// streaming writer.
func WriteValueJSONFile(path string, v any) error {
	return WriteJSONFile(path, func(w io.Writer) error { return EncodeJSON(w, v) })
}

// WriteMetricsFile writes an observability snapshot to path: the JSON
// rendering when the path ends in .json, the one-line-per-series text
// rendering otherwise.  All five tools' -metrics flags route through it.
func WriteMetricsFile(path string, snap obs.Snapshot) error {
	write := snap.WriteText
	if strings.HasSuffix(path, ".json") {
		write = snap.WriteJSON
	}
	return WriteJSONFile(path, write)
}

// Profiles holds a tool's opt-in -cpuprofile and -memprofile paths.
// Profiling writes only to those files, never to the tool's stdout, so a
// profiled run prints the same bytes as an unprofiled one.
type Profiles struct {
	cpu, mem string
}

// ProfileFlags registers -cpuprofile and -memprofile on fs.
func ProfileFlags(fs *flag.FlagSet) *Profiles {
	p := &Profiles{}
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&p.mem, "memprofile", "", "write a pprof heap profile to this file when the run ends")
	return p
}

// Start begins CPU profiling if requested and returns the function that
// ends it and writes the heap profile.  Defer stop(&err) from a function
// with a named error result: a profile-writing failure becomes the
// function's error unless it already failed for another reason.
func (p *Profiles) Start() (stop func(errp *error), err error) {
	var cpuFile *os.File
	if p.cpu != "" {
		if cpuFile, err = os.Create(p.cpu); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			if cerr := cpuFile.Close(); cerr != nil {
				return nil, errors.Join(err, cerr)
			}
			return nil, err
		}
	}
	return func(errp *error) {
		var errs []error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpuFile.Close())
		}
		if p.mem != "" {
			errs = append(errs, writeHeapProfile(p.mem))
		}
		if *errp == nil {
			*errp = errors.Join(errs...)
		}
	}, nil
}

// writeHeapProfile writes the heap profile as of the last completed GC,
// forcing one first so the profile reflects the whole run.
func writeHeapProfile(path string) error {
	runtime.GC()
	return WriteJSONFile(path, pprof.WriteHeapProfile)
}

// Table renders aligned report columns through a tabwriter.  Rows are
// buffered until Flush.
type Table struct {
	tw *tabwriter.Writer
}

// NewTable returns a Table writing to out with the report tools' standard
// geometry (two-space padding, left-aligned cells).
func NewTable(out io.Writer) *Table {
	return &Table{tw: tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)}
}

// Row writes one row; cells are tab-separated by the writer.
func (t *Table) Row(cells ...string) {
	fmt.Fprintln(t.tw, strings.Join(cells, "\t"))
}

// Rowf writes one row from format verbs, one cell per argument after
// splitting on tabs in the expansion.
func (t *Table) Rowf(format string, args ...any) {
	fmt.Fprintf(t.tw, format+"\n", args...)
}

// Flush renders the buffered rows with final column widths.
func (t *Table) Flush() error { return t.tw.Flush() }
