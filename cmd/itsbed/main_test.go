package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The CLI drives the same experiment functions the benches use; these
// tests exercise argument parsing and the thin printing layer with
// minimal run counts.

func TestRunTable1(t *testing.T) {
	if err := run([]string{"table1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunTable2Fast(t *testing.T) {
	if err := run([]string{"table2", "-runs", "2", "-vision=false"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig7(t *testing.T) {
	if err := run([]string{"fig7"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownCommand(t *testing.T) {
	if err := run([]string{"bogus"}); err == nil {
		t.Fatal("unknown command accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"table2", "-definitely-not-a-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// capture runs the CLI with args and returns what it printed.
func capture(t *testing.T, args ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	runErr := run(args)
	os.Stdout = stdout
	w.Close()
	got := <-out
	if runErr != nil {
		t.Fatalf("%v: %v", args, runErr)
	}
	return got
}

func TestRunFlagsOnBothSidesOfCommand(t *testing.T) {
	for _, args := range [][]string{
		{"-seed", "1", "table1", "-definitely-not-a-flag"},
		{"-seed", "1", "table1", "extra"},
		{"table1", "-seed", "1", "extra"},
	} {
		if err := run(args); err == nil {
			t.Fatalf("%v: accepted", args)
		}
	}
	got := capture(t, "-workers", "1", "city", "-stations", "10", "-duration", "100ms")
	if !strings.Contains(got, "100ms per run") || !strings.Contains(got, "\n        10 ") {
		t.Fatalf("flags after the command were dropped:\n%s", got)
	}
}

func TestRunRadioRejectedWhereIgnored(t *testing.T) {
	for _, cmd := range []string{"table1", "cpm", "city", "all"} {
		err := run([]string{"-radio", "cv2x-pc5", cmd})
		if err == nil {
			t.Fatalf("%s: -radio cv2x-pc5 accepted", cmd)
		}
		for _, want := range []string{cmd, "table2", "table3", "fig10", "fig11", "resilience"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error %q does not name %s", cmd, err, want)
			}
		}
	}
	if err := run([]string{"table1", "-radio", "its-g5"}); err != nil {
		t.Fatalf("default radio rejected: %v", err)
	}
}

func TestRunInstrumentationFlagsRejectedWhereIgnored(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out")
	cases := []struct {
		args []string
		cmd  string
		want []string
	}{
		{[]string{"fig11", "-runs", "1", "-vision=false", "-trace-out", out}, "fig11", []string{"-trace-out", "table2, all"}},
		{[]string{"-metrics", "fig11", "-runs", "1", "-vision=false"}, "fig11", []string{"-metrics", "table2, resilience, all"}},
		{[]string{"table2", "-runs", "1", "-vision=false", "-blackbox", out}, "table2", []string{"-blackbox", "resilience"}},
		{[]string{"all", "-blackbox", out}, "all", []string{"-blackbox", "resilience"}},
		{[]string{"resilience", "-runs", "1", "-vision=false", "-spans"}, "resilience", []string{"-spans", "table2, all"}},
		{[]string{"table3", "-runs", "1", "-vision=false", "-metrics"}, "table3", []string{"-metrics"}},
	}
	for _, c := range cases {
		err := run(c.args)
		if err == nil {
			t.Fatalf("%v: accepted", c.args)
		}
		for _, want := range append(c.want, c.cmd) {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%v: error %q does not name %s", c.args, err, want)
			}
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Fatalf("%v: wrote %s", c.args, out)
		}
	}
}
