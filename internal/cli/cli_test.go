package cli

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	_ "nvscavenger/internal/apps/gtcmini"
)

func TestValidateApp(t *testing.T) {
	if err := ValidateApp("gtc"); err != nil {
		t.Fatalf("gtc must validate: %v", err)
	}
	if err := ValidateApp("nonesuch"); err == nil {
		t.Fatal("unknown app must be rejected")
	}
	if !strings.Contains(AppList(), "gtc") {
		t.Fatalf("AppList = %q", AppList())
	}
}

func TestRequireApp(t *testing.T) {
	fs := NewFlagSet("t")
	fs.SetOutput(io.Discard)
	if err := RequireApp(fs, ""); err == nil || !strings.Contains(err.Error(), "missing -app") {
		t.Fatalf("empty app err = %v", err)
	}
	if err := RequireApp(fs, "nonesuch"); err == nil {
		t.Fatal("unknown app must error")
	}
	if err := RequireApp(fs, "gtc"); err != nil {
		t.Fatalf("gtc: %v", err)
	}
}

func TestNewFlagSetContinuesOnError(t *testing.T) {
	fs := NewFlagSet("t")
	fs.SetOutput(io.Discard)
	if err := fs.Parse([]string{"-bogus"}); err == nil {
		t.Fatal("bad flag must surface as an error, not exit")
	}
}

func TestWriteJSONFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.json")
	if err := WriteJSONFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte(`{"ok":true}`))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"ok":true}` {
		t.Fatalf("data = %s", data)
	}

	if err := WriteJSONFile(filepath.Join(t.TempDir(), "no", "dir", "x.json"),
		func(io.Writer) error { return nil }); err == nil {
		t.Fatal("uncreatable path must error")
	}
}

func TestTableAligns(t *testing.T) {
	var buf bytes.Buffer
	tbl := NewTable(&buf)
	tbl.Row("object", "segment", "refs")
	tbl.Rowf("%s\t%s\t%d", "zion", "heap", 12345)
	tbl.Rowf("%s\t%s\t%d", "x", "global", 7)
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), buf.String())
	}
	// Columns are aligned: "segment"/"heap"/"global" start at one offset.
	off := strings.Index(lines[0], "segment")
	if off < 0 || strings.Index(lines[1], "heap") != off || strings.Index(lines[2], "global") != off {
		t.Fatalf("columns misaligned:\n%s", buf.String())
	}
}

func TestProfilesWriteFiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	fs := NewFlagSet("t")
	p := ProfileFlags(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	stop, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	stop(&err)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Fatalf("profile %s missing or empty (err %v)", path, err)
		}
	}
}

func TestProfilesOffAndErrors(t *testing.T) {
	fs := NewFlagSet("t")
	p := ProfileFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	stop, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	stop(&err)
	if err != nil {
		t.Fatalf("profiling off must not fail: %v", err)
	}

	bad := filepath.Join(t.TempDir(), "no", "dir", "p.pprof")
	if _, err := (&Profiles{cpu: bad}).Start(); err == nil {
		t.Fatal("unwritable -cpuprofile must fail at Start")
	}
	stop, err = (&Profiles{mem: bad}).Start()
	if err != nil {
		t.Fatal(err)
	}
	stop(&err)
	if err == nil {
		t.Fatal("unwritable -memprofile must fail at stop")
	}
	prior := errors.New("run failed")
	err = prior
	stop(&err)
	if err != prior {
		t.Fatalf("stop replaced the run's own error: %v", err)
	}
}
