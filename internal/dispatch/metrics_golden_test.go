package dispatch

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mobic/internal/experiment"
	"mobic/internal/obs"
	"mobic/internal/service"
)

var update = flag.Bool("update", false, "rewrite testdata/metrics.golden")

// TestMetricsExpositionGolden pins the shape of both daemons' /metrics:
// every family's name, HELP text and TYPE, every sample's label names, and
// the histogram le bounds. Sample values and label values (tenant names,
// peer URLs) are stripped, so the file moves only when the exposition
// contract does. Re-pin with -update.
func TestMetricsExpositionGolden(t *testing.T) {
	var b strings.Builder

	// A worker daemon with a live registry, after one finished job
	// submitted under a named tenant.
	svc, err := service.Open(service.Config{
		Workers: 1,
		Obs:     obs.NewRegistry(),
		Execute: func(ctx context.Context, spec service.JobSpec, base experiment.Runner, progress func(done, total int)) (*service.Output, error) {
			progress(1, 1)
			return &service.Output{Result: &experiment.Result{ID: "stub", Title: "stub"}}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	srv := httptest.NewServer(service.NewHandler(svc))
	t.Cleanup(func() {
		srv.Close()
		_ = svc.Shutdown(context.Background())
	})
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs", strings.NewReader(`{"experiment":"fig3"}`))
	req.Header.Set("X-Mobic-Tenant", "alpha")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st service.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %v", resp.StatusCode, err)
	}
	if got := awaitTerminal(t, srv.URL, st.ID, 10*time.Second); got.State != service.StateSucceeded {
		t.Fatalf("job state %s, want succeeded", got.State)
	}
	b.WriteString("== service\n")
	b.WriteString(exposition(t, srv.URL))

	// A coordinator over two worker peers.
	_, csrv, _ := newCluster(t, []*worker{newWorker(t), newWorker(t)})
	b.WriteString("== dispatch\n")
	b.WriteString(exposition(t, csrv.URL))

	path := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("/metrics shape differs from %s (re-pin with -update if intended); got:\n%s", path, got)
	}
}

// exposition scrapes url/metrics and reduces it to its shape: comment
// lines verbatim, sample lines as name{label names}, keeping only the
// values of le labels.
func exposition(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = sampleShape(line)
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// sampleShape drops a sample line's value and its label values other than
// le: `x{peer="http://a",le="0.5"} 3` becomes `x{peer,le="0.5"}`.
func sampleShape(line string) string {
	series := line[:strings.LastIndexByte(line, ' ')]
	open := strings.IndexByte(series, '{')
	if open < 0 {
		return series
	}
	var names []string
	rest := series[open+1 : len(series)-1]
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		name := rest[:eq]
		// The value is a quoted string; find its closing quote.
		end := eq + 2
		for rest[end] != '"' {
			if rest[end] == '\\' {
				end++
			}
			end++
		}
		if name == "le" {
			name = rest[:end+1]
		}
		names = append(names, name)
		rest = strings.TrimPrefix(rest[end+1:], ",")
	}
	return series[:open] + "{" + strings.Join(names, ",") + "}"
}
