package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"nvscavenger/internal/experiments"

	_ "nvscavenger/internal/apps/cammini"
	_ "nvscavenger/internal/apps/gtcmini"
	_ "nvscavenger/internal/apps/mdmini"
	_ "nvscavenger/internal/apps/nekmini"
	_ "nvscavenger/internal/apps/s3dmini"
)

// goldenPath is the pinned nvreport output for the golden configuration,
// relative to the repository root the benchmark runs from.
var goldenPath = filepath.Join("cmd", "nvreport", "testdata", "golden_report.txt")

// The golden configuration: scale 0.05, 3 iterations, one worker.
const (
	goldenScale = 0.05
	goldenIters = 3
)

// renderReport renders a full report in process, stamped with the current
// time the way the CLI stamps it.
func renderReport(opts ...experiments.Option) (string, error) {
	var buf bytes.Buffer
	sess := experiments.NewSession(opts...)
	if err := sess.WriteReport(&buf, experiments.ReportConfig{Now: time.Now}); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// checkGolden renders the golden configuration and compares it, timestamp line
// removed, with the pinned file.
func checkGolden() error {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		return err
	}
	got, err := renderReport(experiments.WithScale(goldenScale),
		experiments.WithIterations(goldenIters), experiments.WithJobs(1))
	if err != nil {
		return err
	}
	return sameReport(stripTimestamp(got), string(want))
}

// stripTimestamp removes the "generated <time>" line, the only line of a
// report allowed to differ between runs and frontends.
func stripTimestamp(report string) string {
	lines := strings.Split(report, "\n")
	kept := lines[:0]
	for _, l := range lines {
		if !strings.HasPrefix(l, "generated ") {
			kept = append(kept, l)
		}
	}
	return strings.Join(kept, "\n")
}

// sameReport reports where two report texts first differ.
func sameReport(got, want string) error {
	if got == want {
		return nil
	}
	n := min(len(got), len(want))
	i := 0
	for i < n && got[i] == want[i] {
		i++
	}
	line := strings.Count(want[:i], "\n") + 1
	return fmt.Errorf("report differs at byte %d (line %d): got %d bytes, want %d", i, line, len(got), len(want))
}
