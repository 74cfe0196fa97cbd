package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"mobic/internal/obs"
)

func TestRunRejectsBadFlags(t *testing.T) {
	var log strings.Builder
	if err := run([]string{"-nope"}, &log); err == nil {
		t.Error("unknown flag should error")
	}
}

func TestRunRejectsBadAddr(t *testing.T) {
	var log strings.Builder
	if err := run([]string{"-addr", "999.999.999.999:0"}, &log); err == nil {
		t.Error("unlistenable address should error")
	}
}

func TestRunRejectsBadDataDir(t *testing.T) {
	var log strings.Builder
	// /dev/null is a file, so no journal directory can be created under it.
	if err := run([]string{"-addr", "127.0.0.1:0", "-data-dir", "/dev/null/journal"}, &log); err == nil {
		t.Error("unwritable data dir should error at boot, not at first submit")
	}
}

func TestRunRejectsBadLogFormat(t *testing.T) {
	var log strings.Builder
	if err := run([]string{"-log-format", "yaml"}, &log); err == nil {
		t.Error("unknown log format should error at boot")
	}
}

func TestRunRejectsBadDebugAddr(t *testing.T) {
	var log strings.Builder
	if err := run([]string{"-addr", "127.0.0.1:0", "-debug-addr", "999.999.999.999:0"}, &log); err == nil {
		t.Error("unlistenable debug address should error at boot")
	}
}

func TestRunRejectsBadClusterKnobs(t *testing.T) {
	for _, bad := range [][]string{
		{"-fail-after", "0"},
		{"-fail-after", "-1"},
		{"-poll-every", "0s"},
		{"-poll-every", "-1s"},
		{"-breaker-threshold", "0"},
		{"-breaker-cooldown", "-5s"},
	} {
		var log strings.Builder
		if err := run(append([]string{"-addr", "127.0.0.1:0"}, bad...), &log); err == nil {
			t.Errorf("%v should error at boot", bad)
		}
	}
}

// syncBuffer is a goroutine-safe log sink: run() writes from its own
// goroutine while the test polls for the listener addresses.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestRunServesAndShutsDown boots the real daemon on ephemeral ports,
// checks the public API answers, that /metrics carries the engine telemetry
// families next to the service's own, that the opt-in debug listener serves
// the span window — then delivers SIGTERM and expects a clean exit.
func TestRunServesAndShutsDown(t *testing.T) {
	var log syncBuffer
	dir := t.TempDir()
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-debug-addr", "127.0.0.1:0",
			"-quick",
			"-drain", "5s",
			"-data-dir", dir,
			"-wal-compact-bytes", "1048576",
			"-cache-entries", "32",
			"-cache-disk-mb", "8",
		}, &log)
	}()

	// The chosen ports only exist in the boot log: first the API listener,
	// then the debug one.
	addrRe := regexp.MustCompile(`addr=(127\.0\.0\.1:\d+)`)
	var addrs []string
	deadline := time.Now().Add(10 * time.Second)
	for len(addrs) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("listeners never came up; log:\n%s", log.String())
		}
		addrs = nil
		for _, m := range addrRe.FindAllStringSubmatch(log.String(), -1) {
			addrs = append(addrs, m[1])
		}
		time.Sleep(5 * time.Millisecond)
	}
	api, debug := "http://"+addrs[0], "http://"+addrs[1]

	resp, err := http.Get(api + "/livez")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("livez status = %d", resp.StatusCode)
	}

	mresp, err := http.Get(api + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"mobicd_jobs_submitted_total",  // service metrics
		"mobic_sim_events_fired_total", // engine kernel
		"mobic_net_beacons_sent_total", // network layer
		"mobic_experiment_progress_ratio",
	} {
		if !strings.Contains(string(body), "# TYPE "+family) {
			t.Errorf("/metrics missing family %s", family)
		}
	}

	dresp, err := http.Get(debug + "/debug/obs/spans")
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Errorf("debug spans status = %d", dresp.StatusCode)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run returned %v, want clean shutdown", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down on SIGTERM")
	}
	if !strings.Contains(log.String(), "msg=bye") {
		t.Errorf("shutdown log missing; log:\n%s", log.String())
	}
}

// TestNewLoggerFormats checks both handler shapes: text is logfmt-ish,
// json emits one valid JSON object per line with the standard slog keys.
func TestNewLoggerFormats(t *testing.T) {
	var text strings.Builder
	logger, err := newLogger(&text, "text")
	if err != nil {
		t.Fatal(err)
	}
	logger.Info("listening", "addr", ":0")
	if got := text.String(); !strings.Contains(got, "msg=listening") || !strings.Contains(got, "addr=:0") {
		t.Errorf("text log = %q", got)
	}

	var jsonBuf strings.Builder
	logger, err = newLogger(&jsonBuf, "json")
	if err != nil {
		t.Fatal(err)
	}
	logger.Info("listening", "addr", ":0")
	sc := bufio.NewScanner(strings.NewReader(jsonBuf.String()))
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("json log line %q: %v", sc.Text(), err)
		}
		if line["msg"] != "listening" || line["addr"] != ":0" || line["level"] != "INFO" {
			t.Errorf("json log line = %v", line)
		}
	}

	if _, err := newLogger(&text, ""); err != nil {
		t.Errorf("empty format should default to text, got %v", err)
	}
}

// TestDebugHandler exercises the opt-in diagnostics mux: the pprof index
// and one profile endpoint respond, and /debug/obs/spans serves the
// registry's sampled span window as JSON.
func TestDebugHandler(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Span(obs.SpanJob, 0, 3e9)
	srv := httptest.NewServer(newDebugHandler(reg))
	defer srv.Close()

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status = %d, want 200", path, resp.StatusCode)
		}
	}

	resp, err := http.Get(srv.URL + "/debug/obs/spans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("spans Content-Type = %q", ct)
	}
	var spans []obs.SpanRecord
	if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 || spans[0].Kind != "job" || spans[0].Seconds != 3 {
		t.Errorf("spans = %+v, want one 3 s job span", spans)
	}
}

func TestRunRejectsCoordinatorWithoutPeers(t *testing.T) {
	var log strings.Builder
	if err := run([]string{"-addr", "127.0.0.1:0", "-coordinator"}, &log); err == nil {
		t.Error("coordinator mode without -peers should error at boot")
	}
}

// TestRunCoordinatorMode boots two real worker daemons and a real
// coordinator daemon in-process, submits a sweep through the coordinator,
// waits for the proxied result, and checks that the job's owner replicated
// it to the other worker with no flag set, and that an identical
// resubmission is eventually answered from the coordinator's result cache
// (fresh job ID, terminal on arrival). SIGTERM then shuts all three
// daemons down cleanly.
func TestRunCoordinatorMode(t *testing.T) {
	bootAddr := func(args []string) (string, *syncBuffer, chan error) {
		var log syncBuffer
		done := make(chan error, 1)
		go func() { done <- run(args, &log) }()
		addrRe := regexp.MustCompile(`addr=(127\.0\.0\.1:\d+)`)
		deadline := time.Now().Add(10 * time.Second)
		for {
			if m := addrRe.FindStringSubmatch(log.String()); m != nil {
				return m[1], &log, done
			}
			if time.Now().After(deadline) {
				t.Fatalf("listener never came up; log:\n%s", log.String())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	workerArgs := []string{"-addr", "127.0.0.1:0", "-workers", "1", "-drain", "5s"}
	workerAddr, workerLog, workerDone := bootAddr(workerArgs)
	worker2Addr, _, worker2Done := bootAddr(workerArgs)
	coordAddr, coordLog, coordDone := bootAddr([]string{
		"-addr", "127.0.0.1:0", "-coordinator",
		"-peers", "http://" + workerAddr + ",http://" + worker2Addr,
		"-drain", "5s",
	})
	api := "http://" + coordAddr

	// Wait for the coordinator's first health pass to admit the worker.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(api + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never became ready; log:\n%s", coordLog.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	spec := `{"seeds":1,"sweep":{"scenario":{"n":10,"duration":5},"algorithms":["mobic"]}}`
	resp, err := http.Post(api+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit via coordinator: status %d", resp.StatusCode)
	}

	deadline = time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(api + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&cur)
		resp.Body.Close()
		if err == nil && cur.State == "succeeded" {
			break
		}
		if err == nil && (cur.State == "failed" || cur.State == "poisoned") {
			t.Fatalf("proxied job %s: %s", cur.State, cur.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("proxied job never finished; worker log:\n%s", workerLog.String())
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Replication needs no flag: the worker that does not own the job holds
	// the replica its owner streamed to it.
	getStatus := func(url string) int {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	replicaHolder := "http://" + worker2Addr
	if getStatus(replicaHolder+"/v1/jobs/"+st.ID) == http.StatusOK {
		replicaHolder = "http://" + workerAddr
	}
	deadline = time.Now().Add(10 * time.Second)
	for getStatus(replicaHolder+"/v1/replica/"+st.ID) != http.StatusOK {
		if time.Now().After(deadline) {
			t.Fatalf("non-owner %s holds no replica of job %s", replicaHolder, st.ID)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Identical resubmission: once the coordinator's poll loop internalizes
	// the completion, the answer comes from its cache — succeeded on
	// arrival under a fresh job ID.
	deadline = time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Post(api+"/v1/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		var again struct {
			ID    string `json:"id"`
			State string `json:"state"`
		}
		err = json.NewDecoder(resp.Body).Decode(&again)
		resp.Body.Close()
		if err == nil && again.State == "succeeded" && again.ID != st.ID {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resubmission never served from cache (last: id=%s state=%s)", again.ID, again.State)
		}
		time.Sleep(50 * time.Millisecond)
	}

	mresp, err := http.Get(api + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, family := range []string{
		"mobic_cache_hits_total",
		"mobic_dispatch_forwarded_total",
		"mobic_dispatch_peer_up",
	} {
		if !strings.Contains(string(mbody), family) {
			t.Errorf("coordinator /metrics missing %s", family)
		}
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for name, done := range map[string]chan error{"worker": workerDone, "worker2": worker2Done, "coordinator": coordDone} {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s run returned %v, want clean shutdown", name, err)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("%s did not shut down on SIGTERM", name)
		}
	}
	if !strings.Contains(coordLog.String(), "coordinator mode") {
		t.Errorf("coordinator boot log missing mode line:\n%s", coordLog.String())
	}
}
