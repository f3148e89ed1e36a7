package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestGoldenCheckFailsOnOneByteChange(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	want := string(golden)
	stamped := want[:len(firstLine(want))] + "generated 2026-01-02T03:04:05Z\n" + want[len(firstLine(want)):]
	if err := sameReport(stripTimestamp(stamped), want); err != nil {
		t.Fatalf("timestamped golden report rejected: %v", err)
	}
	for _, at := range []int{0, len(want) / 2, len(want) - 1} {
		b := []byte(want)
		b[at] ^= 1
		if err := sameReport(stripTimestamp(string(b)), want); err == nil {
			t.Errorf("one-byte change at offset %d passed the golden check", at)
		}
	}
	if err := sameReport(want[:len(want)-1], want); err == nil {
		t.Error("a report one byte short passed the golden check")
	}
}

func firstLine(s string) string {
	for i := range s {
		if s[i] == '\n' {
			return s[:i+1]
		}
	}
	return s
}
