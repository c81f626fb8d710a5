package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"anysim/internal/bgp"
	"anysim/internal/dynamics"
	"anysim/internal/worldgen"
)

// TestRunUsageErrors checks that flag and argument mistakes exit with the
// usage code before any world is built (these must all return instantly).
func TestRunUsageErrors(t *testing.T) {
	cases := [][]string{
		{},                             // no subcommand
		{"-bogusflag"},                 // unknown flag
		{"frobnicate"},                 // unknown subcommand
		{"catchment"},                  // missing argument
		{"probe", "FRA|1"},             // missing argument
		{"routes", "1", "2", "3", "4"}, // too many arguments
		{"scenario"},                   // missing file
		{"load", "nine"},               // non-numeric bucket
		{"load", "-3"},                 // negative bucket
		{"load", "0", "extra"},         // too many arguments
	}
	for _, args := range cases {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != exitUsage {
			t.Errorf("run(%q) = %d, want usage exit %d (stderr: %s)",
				args, code, exitUsage, errOut.String())
		}
		if errOut.Len() == 0 {
			t.Errorf("run(%q) printed nothing to stderr", args)
		}
	}
}

// TestExitCode checks the error-to-exit-code mapping, in particular that a
// wrapped routing non-termination is distinguished from ordinary errors.
func TestExitCode(t *testing.T) {
	nte := &bgp.NonTerminationError{
		Prefix: netip.MustParsePrefix("198.51.100.0/24"), Phase: 1, Iterations: 7,
	}
	if got := exitCode(fmt.Errorf("scenario step 3: %w", nte)); got != exitNonTermination {
		t.Errorf("wrapped NonTerminationError -> %d, want %d", got, exitNonTermination)
	}
	if got := exitCode(fmt.Errorf("plain failure")); got != exitError {
		t.Errorf("plain error -> %d, want %d", got, exitError)
	}
	derr := &dynamics.DecodeError{Line: 3, Err: fmt.Errorf("bad event")}
	if got := exitCode(fmt.Errorf("stdin ingest: %w", derr)); got != exitDecode {
		t.Errorf("wrapped DecodeError -> %d, want %d", got, exitDecode)
	}
}

// TestRunSubcommands drives the CLI end to end on the reduced world.
func TestRunSubcommands(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a world")
	}
	base := []string{"-small", "-seed", "7"}

	t.Run("deployments", func(t *testing.T) {
		var out, errOut bytes.Buffer
		if code := run(append(base, "deployments"), &out, &errOut); code != exitOK {
			t.Fatalf("exit %d, stderr: %s", code, errOut.String())
		}
		for _, want := range []string{"Imperva-6", "Imperva-NS", "Edgio-3", "sites"} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("deployments output missing %q", want)
			}
		}
	})

	t.Run("load", func(t *testing.T) {
		var out, errOut bytes.Buffer
		if code := run(append(base, "load"), &out, &errOut); code != exitOK {
			t.Fatalf("exit %d, stderr: %s", code, errOut.String())
		}
		for _, want := range []string{"per-site load at bucket", "max util", "utilization at bucket"} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("load output missing %q", want)
			}
		}
	})

	t.Run("load-bad-bucket", func(t *testing.T) {
		var out, errOut bytes.Buffer
		if code := run(append(base, "load", "99"), &out, &errOut); code != exitError {
			t.Fatalf("exit %d, want %d (out-of-range bucket)", code, exitError)
		}
	})

	t.Run("scenario", func(t *testing.T) {
		file := filepath.Join(t.TempDir(), "s.txt")
		text := "scenario cli-test\nat 1 site-down fra\nat 2 site-up fra\n"
		if err := os.WriteFile(file, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		var out, errOut bytes.Buffer
		if code := run(append(base, "scenario", file), &out, &errOut); code != exitOK {
			t.Fatalf("exit %d, stderr: %s", code, errOut.String())
		}
		if !strings.Contains(out.String(), "net effect") {
			t.Errorf("scenario output missing summary: %s", out.String())
		}
	})

	t.Run("scenario-missing-file", func(t *testing.T) {
		var out, errOut bytes.Buffer
		if code := run(append(base, "scenario", "/nonexistent/x.txt"), &out, &errOut); code != exitError {
			t.Fatalf("exit %d, want %d", code, exitError)
		}
	})

	t.Run("profiles", func(t *testing.T) {
		dir := t.TempDir()
		cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
		var out, errOut bytes.Buffer
		args := append(append([]string(nil), base...), "-cpuprofile", cpu, "-memprofile", mem, "load", "0")
		if code := run(args, &out, &errOut); code != exitOK {
			t.Fatalf("exit %d, stderr: %s", code, errOut.String())
		}
		for _, f := range []string{cpu, mem} {
			st, err := os.Stat(f)
			if err != nil {
				t.Fatalf("profile not written: %v", err)
			}
			if st.Size() == 0 {
				t.Errorf("profile %s is empty", f)
			}
		}
	})

	t.Run("bad-dep", func(t *testing.T) {
		var out, errOut bytes.Buffer
		args := append(append([]string(nil), base...), "-dep", "nope", "load")
		if code := run(args, &out, &errOut); code != exitError {
			t.Fatalf("exit %d, want %d", code, exitError)
		}
		if !strings.Contains(errOut.String(), "unknown deployment") {
			t.Errorf("stderr missing deployment hint: %s", errOut.String())
		}
	})

	t.Run("metrics-and-trace", func(t *testing.T) {
		dir := t.TempDir()
		metrics, trace := filepath.Join(dir, "m.json"), filepath.Join(dir, "t.jsonl")
		file := filepath.Join(dir, "s.txt")
		text := "scenario obs-test\nat 1 site-down fra\nat 2 site-up fra\n"
		if err := os.WriteFile(file, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		var out, errOut bytes.Buffer
		args := append(append([]string(nil), base...), "-metrics", metrics, "-tracefile", trace, "scenario", file)
		if code := run(args, &out, &errOut); code != exitOK {
			t.Fatalf("exit %d, stderr: %s", code, errOut.String())
		}
		snap, err := os.ReadFile(metrics)
		if err != nil {
			t.Fatalf("metrics snapshot not written: %v", err)
		}
		var decoded struct {
			Sim struct {
				Counters map[string]int64 `json:"counters"`
			} `json:"sim"`
		}
		if err := json.Unmarshal(snap, &decoded); err != nil {
			t.Fatalf("snapshot is not valid JSON: %v\n%s", err, snap)
		}
		if decoded.Sim.Counters["dynamics.steps"] != 2 {
			t.Errorf("dynamics.steps = %d, want 2\n%s", decoded.Sim.Counters["dynamics.steps"], snap)
		}
		if decoded.Sim.Counters["bgp.op.site"] == 0 {
			t.Errorf("bgp.op.site missing from snapshot:\n%s", snap)
		}
		tr, err := os.ReadFile(trace)
		if err != nil {
			t.Fatalf("trace not written: %v", err)
		}
		lines := strings.Split(strings.TrimRight(string(tr), "\n"), "\n")
		if len(lines) < 3 {
			t.Fatalf("trace has %d lines, want at least worldgen spans + 2 steps:\n%s", len(lines), tr)
		}
		sawStep := false
		for _, ln := range lines {
			var ev map[string]any
			if err := json.Unmarshal([]byte(ln), &ev); err != nil {
				t.Fatalf("trace line is not valid JSON: %v\n%s", err, ln)
			}
			if ev["scope"] == "dynamics" && ev["event"] == "step" {
				sawStep = true
			}
		}
		if !sawStep {
			t.Errorf("trace has no dynamics step event:\n%s", tr)
		}
	})

	// The explain tests need a real probe group and a prefix its country maps
	// to; discover them from an identically-seeded world.
	w, err := worldgen.Small(7)
	if err != nil {
		t.Fatal(err)
	}
	probe := w.Platform.Retained()[0]
	region, ok := w.Imperva.IM6.RegionForCountry(probe.Country)
	if !ok {
		t.Fatalf("probe country %s maps no IM6 region", probe.Country)
	}

	t.Run("explain-route", func(t *testing.T) {
		var out, errOut bytes.Buffer
		args := append(append([]string(nil), base...), "explain",
			"-asn", fmt.Sprint(uint32(probe.ASN)), "-prefix", region.VIP.String())
		if code := run(args, &out, &errOut); code != exitOK {
			t.Fatalf("exit %d, stderr: %s", code, errOut.String())
		}
		if !strings.Contains(out.String(), "hop 0") || !strings.Contains(out.String(), "via ") {
			t.Errorf("explain output missing decision chain: %s", out.String())
		}
		// Rerun byte-identity: the looking glass is deterministic.
		var out2, errOut2 bytes.Buffer
		if code := run(args, &out2, &errOut2); code != exitOK {
			t.Fatalf("rerun exit %d, stderr: %s", code, errOut2.String())
		}
		if out.String() != out2.String() {
			t.Error("explain output differs across reruns")
		}
	})

	t.Run("explain-group-json", func(t *testing.T) {
		var out, errOut bytes.Buffer
		group := probe.GroupKey()
		args := append(append([]string(nil), base...), "explain", "-json", "-group", group)
		if code := run(args, &out, &errOut); code != exitOK {
			t.Fatalf("exit %d, stderr: %s", code, errOut.String())
		}
		var decoded struct {
			Group string `json:"group"`
			Class string `json:"class"`
		}
		if err := json.Unmarshal(out.Bytes(), &decoded); err != nil {
			t.Fatalf("explain -json is not valid JSON: %v\n%s", err, out.String())
		}
		if decoded.Group != group || decoded.Class == "" {
			t.Errorf("explain -json missing group/class: %s", out.String())
		}
	})

	t.Run("explain-usage", func(t *testing.T) {
		for _, args := range [][]string{
			{"explain"},              // no selector
			{"explain", "-asn", "1"}, // -asn without -prefix
			{"explain", "-group", "FRA|1", "-asn", "1", "-prefix", "198.18.0.1"}, // both
			{"explain", "-group", "FRA|1", "extra"},                              // stray arg
		} {
			var out, errOut bytes.Buffer
			if code := run(append(append([]string(nil), base...), args...), &out, &errOut); code != exitUsage {
				t.Errorf("run(%q) = %d, want usage exit %d", args, code, exitUsage)
			}
		}
	})

	t.Run("diff-traces", func(t *testing.T) {
		dir := t.TempDir()
		file := filepath.Join(dir, "s.txt")
		if err := os.WriteFile(file, []byte("scenario d\nat 1 site-down fra\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		mkTrace := func(name string, seed string) string {
			path := filepath.Join(dir, name)
			var out, errOut bytes.Buffer
			args := []string{"-small", "-seed", seed, "-tracefile", path, "scenario", file}
			if code := run(args, &out, &errOut); code != exitOK {
				t.Fatalf("trace run exit %d, stderr: %s", code, errOut.String())
			}
			return path
		}
		a := mkTrace("a.jsonl", "7")
		b := mkTrace("b.jsonl", "7")
		other := mkTrace("c.jsonl", "8")

		var out, errOut bytes.Buffer
		if code := run([]string{"diff", a, b}, &out, &errOut); code != exitOK {
			t.Fatalf("identical traces: exit %d, stderr: %s", code, errOut.String())
		}
		if !strings.Contains(out.String(), "byte-identical") {
			t.Errorf("diff output missing identity line: %s", out.String())
		}
		out.Reset()
		errOut.Reset()
		if code := run([]string{"diff", a, other}, &out, &errOut); code != exitError {
			t.Fatalf("incompatible traces: exit %d, want %d", code, exitError)
		}
		if !strings.Contains(errOut.String(), "incomparable") {
			t.Errorf("stderr missing incomparability reason: %s", errOut.String())
		}
		// -json renders a machine-readable report.
		out.Reset()
		errOut.Reset()
		if code := run([]string{"diff", "-json", a, b}, &out, &errOut); code != exitOK {
			t.Fatalf("diff -json exit %d, stderr: %s", code, errOut.String())
		}
		var decoded struct {
			Identical bool `json:"identical"`
		}
		if err := json.Unmarshal(out.Bytes(), &decoded); err != nil || !decoded.Identical {
			t.Errorf("diff -json not identical/valid (%v): %s", err, out.String())
		}
		// Usage errors need no files.
		if code := run([]string{"diff", a}, &out, &errOut); code != exitUsage {
			t.Errorf("diff with one file: exit %d, want %d", code, exitUsage)
		}
		if code := run([]string{"diff", a, "/nonexistent/b.jsonl"}, &out, &errOut); code != exitError {
			t.Errorf("diff with missing file: exit %d, want %d", code, exitError)
		}
	})

	t.Run("tracefile-sink-failure", func(t *testing.T) {
		if _, err := os.Stat("/dev/full"); err != nil {
			t.Skip("/dev/full not available")
		}
		var out, errOut bytes.Buffer
		args := append(append([]string(nil), base...), "-tracefile", "/dev/full", "deployments")
		if code := run(args, &out, &errOut); code != exitError {
			t.Fatalf("exit %d, want %d (failed trace sink must fail the run)", code, exitError)
		}
		if !strings.Contains(errOut.String(), "dropped") {
			t.Errorf("stderr missing dropped-event report: %s", errOut.String())
		}
	})

	t.Run("metrics-stdout", func(t *testing.T) {
		var out, errOut bytes.Buffer
		args := append(append([]string(nil), base...), "-metrics", "-", "deployments")
		if code := run(args, &out, &errOut); code != exitOK {
			t.Fatalf("exit %d, stderr: %s", code, errOut.String())
		}
		if !strings.Contains(out.String(), `"bgp.announce.full"`) {
			t.Errorf("stdout snapshot missing announce counter: %s", out.String())
		}
	})

	t.Run("debug-addr", func(t *testing.T) {
		// A fixed-but-free port: bind :0 to discover one, release it, and
		// hand it to the CLI. Races with other listeners are unlikely enough
		// for a test that only checks the server comes up.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		var out, errOut bytes.Buffer
		args := append(append([]string(nil), base...), "-debug-addr", addr, "deployments")
		if code := run(args, &out, &errOut); code != exitOK {
			t.Fatalf("exit %d, stderr: %s", code, errOut.String())
		}
		if !strings.Contains(errOut.String(), "debug server on") {
			t.Errorf("stderr missing debug server banner: %s", errOut.String())
		}
	})

	// freePort picks a fixed-but-free port the same way the debug-addr test
	// does: bind :0 to discover one and release it for the CLI.
	freePort := func(t *testing.T) string {
		t.Helper()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		return addr
	}
	// waitStatus polls GET /status until the server is up and has applied
	// wantEvents events (stdin ingest is concurrent with startup).
	waitStatus := func(t *testing.T, base string, wantEvents int64) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			resp, err := http.Get(base + "/status")
			if err == nil {
				var st struct {
					Events int64 `json:"events"`
				}
				err := json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if err == nil && resp.StatusCode == http.StatusOK && st.Events >= wantEvents {
					return
				}
			}
			time.Sleep(25 * time.Millisecond)
		}
		t.Fatalf("server at %s did not reach %d applied events", base, wantEvents)
	}
	mustGet := func(t *testing.T, url string) string {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, err %v: %s", url, resp.StatusCode, err, body)
		}
		return string(body)
	}

	dir := t.TempDir()
	cpPath := filepath.Join(dir, "serve-cp.json")

	t.Run("serve", func(t *testing.T) {
		addr := freePort(t)
		metrics := filepath.Join(dir, "serve-m.json")
		stdin = strings.NewReader("at 1 site-down fra\n")
		defer func() { stdin = os.Stdin }()

		var out, errOut bytes.Buffer
		args := append(append([]string(nil), base...),
			"-metrics", metrics, "serve", "-listen", addr, "-checkpoint", cpPath)
		done := make(chan int, 1)
		go func() { done <- run(args, &out, &errOut) }()

		api := "http://" + addr
		waitStatus(t, api, 1) // stdin event applied

		// Queries against a fixed state are deterministic.
		load1 := mustGet(t, api+"/load")
		load2 := mustGet(t, api+"/load")
		if load1 == "" || load1 != load2 {
			t.Errorf("GET /load nondeterministic or empty:\n%s\n%s", load1, load2)
		}
		if !strings.Contains(load1, `"sites"`) {
			t.Errorf("GET /load missing sites: %s", load1)
		}

		// Ingest over HTTP composes with stdin ingest.
		resp, err := http.Post(api+"/events", "text/plain",
			strings.NewReader("at 2 site-up fra\n"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /events = %d", resp.StatusCode)
		}
		waitStatus(t, api, 2)

		// Graceful shutdown: drain, checkpoint, flush sinks, exit 0.
		if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case code := <-done:
			if code != exitOK {
				t.Fatalf("serve exit %d, stderr: %s", code, errOut.String())
			}
		case <-time.After(60 * time.Second):
			t.Fatal("serve did not shut down on SIGTERM")
		}
		for _, want := range []string{"serving Imperva-6", "shutting down", "checkpoint written"} {
			if !strings.Contains(errOut.String(), want) {
				t.Errorf("serve stderr missing %q: %s", want, errOut.String())
			}
		}
		if st, err := os.Stat(cpPath); err != nil || st.Size() == 0 {
			t.Fatalf("shutdown checkpoint not written: %v", err)
		}
		snap, err := os.ReadFile(metrics)
		if err != nil {
			t.Fatalf("metrics snapshot not written: %v", err)
		}
		if !strings.Contains(string(snap), `"serve.ingest.events": 2`) {
			t.Errorf("metrics snapshot missing serve ingest count:\n%s", snap)
		}
	})

	t.Run("serve-restore", func(t *testing.T) {
		if _, err := os.Stat(cpPath); err != nil {
			t.Skip("no checkpoint from the serve subtest")
		}
		addr := freePort(t)
		var out, errOut bytes.Buffer
		args := append(append([]string(nil), base...),
			"serve", "-listen", addr, "-restore", cpPath)
		done := make(chan int, 1)
		go func() { done <- run(args, &out, &errOut) }()

		// The restored server resumes at the checkpointed clock: 2 events
		// applied, tick 2, without replaying anything.
		api := "http://" + addr
		waitStatus(t, api, 2)
		var st struct {
			Tick   int64 `json:"tick"`
			Events int64 `json:"events"`
		}
		if err := json.Unmarshal([]byte(mustGet(t, api+"/status")), &st); err != nil {
			t.Fatal(err)
		}
		if st.Tick != 2 || st.Events != 2 {
			t.Errorf("restored status tick=%d events=%d, want 2/2", st.Tick, st.Events)
		}
		if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case code := <-done:
			if code != exitOK {
				t.Fatalf("serve exit %d, stderr: %s", code, errOut.String())
			}
		case <-time.After(60 * time.Second):
			t.Fatal("restored serve did not shut down on SIGTERM")
		}
	})

	t.Run("serve-decode-error", func(t *testing.T) {
		stdin = strings.NewReader("at 1 site-down fra\nat 2 frobnicate\n")
		defer func() { stdin = os.Stdin }()
		var out, errOut bytes.Buffer
		args := append(append([]string(nil), base...), "serve", "-listen", "127.0.0.1:0")
		if code := run(args, &out, &errOut); code != exitDecode {
			t.Fatalf("exit %d, want %d (bad stdin stream), stderr: %s",
				code, exitDecode, errOut.String())
		}
		if !strings.Contains(errOut.String(), "line 2") {
			t.Errorf("stderr does not name the bad line: %s", errOut.String())
		}
	})

	t.Run("serve-restore-missing", func(t *testing.T) {
		var out, errOut bytes.Buffer
		args := append(append([]string(nil), base...),
			"serve", "-listen", "127.0.0.1:0", "-restore", "/nonexistent/cp.json")
		if code := run(args, &out, &errOut); code != exitError {
			t.Fatalf("exit %d, want %d", code, exitError)
		}
	})

	t.Run("serve-usage", func(t *testing.T) {
		for _, args := range [][]string{
			{"serve", "extra"},      // stray argument
			{"serve", "-bogusflag"}, // unknown flag
		} {
			var out, errOut bytes.Buffer
			if code := run(append(append([]string(nil), base...), args...), &out, &errOut); code != exitUsage {
				t.Errorf("run(%q) = %d, want usage exit %d", args, code, exitUsage)
			}
		}
	})
}

// TestRunObsUsageErrors checks that unwritable observability sinks are
// usage errors reported before the world is built (instant returns).
func TestRunObsUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-tracefile", "/nonexistent-dir/t.jsonl", "deployments"},
		{"-metrics", "/nonexistent-dir/m.json", "deployments"},
		{"-debug-addr", "256.0.0.1:bad", "deployments"},
	}
	for _, args := range cases {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != exitUsage {
			t.Errorf("run(%q) = %d, want usage exit %d (stderr: %s)",
				args, code, exitUsage, errOut.String())
		}
		if errOut.Len() == 0 {
			t.Errorf("run(%q) printed nothing to stderr", args)
		}
	}
}

// TestRunProfile drives the profile subcommand end to end: a -wallmetrics
// -tracefile scenario run produces a span-bearing trace, and profile turns
// it into a self-time table plus a Chrome trace-event export.
func TestRunProfile(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.jsonl")
	file := filepath.Join(dir, "s.txt")
	text := "scenario profile-test\nat 1 site-down fra\nat 2 site-up fra\n"
	if err := os.WriteFile(file, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	args := []string{"-small", "-seed", "7", "-wallmetrics", "-tracefile", trace, "scenario", file}
	if code := run(args, &out, &errOut); code != exitOK {
		t.Fatalf("scenario exit %d, stderr: %s", code, errOut.String())
	}

	chrome := filepath.Join(dir, "chrome.json")
	out.Reset()
	errOut.Reset()
	if code := run([]string{"profile", "-top", "0", "-chrome", chrome, trace}, &out, &errOut); code != exitOK {
		t.Fatalf("profile exit %d, stderr: %s", code, errOut.String())
	}
	table := out.String()
	for _, want := range []string{"self", "worldgen", "dynamics/step"} {
		if !strings.Contains(table, want) {
			t.Errorf("profile table missing %q:\n%s", want, table)
		}
	}
	// -wallmetrics was on, so the trace has wall coordinates and the table
	// must report real milliseconds, not the synthetic tick timeline.
	if strings.Contains(table, "ticks") {
		t.Errorf("wall-clocked trace profiled on the tick fallback:\n%s", table)
	}
	cb, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatalf("chrome export not written: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(cb, &events); err != nil {
		t.Fatalf("chrome export is not a JSON array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("chrome export is an empty event array")
	}
	sawSpan := false
	for _, ev := range events {
		if ev["ph"] == "X" {
			sawSpan = true
		}
	}
	if !sawSpan {
		t.Error("chrome export has no complete (ph=X) span events")
	}

	// Usage and runtime errors exit with the right codes.
	if code := run([]string{"profile"}, &out, &errOut); code != exitUsage {
		t.Errorf("profile with no args = %d, want %d", code, exitUsage)
	}
	if code := run([]string{"profile", filepath.Join(dir, "missing.jsonl")}, &out, &errOut); code != exitError {
		t.Errorf("profile on a missing file = %d, want %d", code, exitError)
	}
}

// TestRunReport drives the flight-recorder CLI loop end to end: a scenario
// run with -slo/-seriesfile records the load trajectory and alert history,
// and report renders the dump — byte-identically across invocations — into
// sparklines, SLO verdicts, and the alert timeline.
func TestRunReport(t *testing.T) {
	dir := t.TempDir()
	series := filepath.Join(dir, "series.json")
	scFile := filepath.Join(dir, "s.txt")
	sloFile := filepath.Join(dir, "rules.slo")
	scText := "scenario report-test\nat 1 site-down fra\nat 2 site-up fra\n"
	if err := os.WriteFile(scFile, []byte(scText), 0o644); err != nil {
		t.Fatal(err)
	}
	// The churn rule fires on the site withdrawal at tick 1 and resolves on
	// the quiet repair-induced sample, so the report has a real breach.
	sloText := "# test rules\nslo churn: reconverge.dirty > 0 for 1 ticks\n"
	if err := os.WriteFile(sloFile, []byte(sloText), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	args := []string{"-small", "-seed", "7", "-seriesfile", series, "-slo", sloFile, "scenario", scFile}
	if code := run(args, &out, &errOut); code != exitOK {
		t.Fatalf("scenario exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "SLO alert timeline:") {
		t.Errorf("recorded scenario run printed no alert timeline:\n%s", out.String())
	}

	render := func() string {
		var ro, re bytes.Buffer
		if code := run([]string{"report", series}, &ro, &re); code != exitOK {
			t.Fatalf("report exit %d, stderr: %s", code, re.String())
		}
		return ro.String()
	}
	first := render()
	for _, want := range []string{
		"flight recording: schema 1",
		"per-site utilization",
		"SLO verdicts:", "BREACHED", "alert timeline:", "churn",
	} {
		if !strings.Contains(first, want) {
			t.Errorf("report missing %q:\n%s", want, first)
		}
	}
	// The report is a pure function of the file: rerenders are identical.
	if second := render(); second != first {
		t.Fatalf("report differs across reruns:\n--- first ---\n%s--- second ---\n%s", first, second)
	}

	// Usage and runtime errors exit with the right codes.
	var ro, re bytes.Buffer
	if code := run([]string{"report"}, &ro, &re); code != exitUsage {
		t.Errorf("report with no args = %d, want %d", code, exitUsage)
	}
	if code := run([]string{"report", filepath.Join(dir, "missing.json")}, &ro, &re); code != exitError {
		t.Errorf("report on a missing file = %d, want %d", code, exitError)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"report", bad}, &ro, &re); code != exitError {
		t.Errorf("report on a non-recording = %d, want %d", code, exitError)
	}
}

// TestHTTPServerBoundsHeaders pins the header-read bound on every listener
// the CLI opens: without it a client that never finishes its headers holds
// a connection and a goroutine for as long as it likes.
func TestHTTPServerBoundsHeaders(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want the positive bound %v", hs.ReadHeaderTimeout, readHeaderTimeout)
	}
}
