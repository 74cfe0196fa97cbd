package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), []string{"-list"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"table1", "fig3", "fig4", "fig5", "fig6a", "fig6b", "ablate-cci", "routes"} {
		if !strings.Contains(out, want) {
			t.Errorf("list missing %q:\n%s", want, out)
		}
	}
}

func TestRunTable1(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), []string{"-exp", "table1"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Number of Nodes") || !strings.Contains(out, "900 sec") {
		t.Errorf("table1 output wrong:\n%s", out)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), []string{"-exp", "fig99"}, &b); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestRunBadFlag(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), []string{"-nope"}, &b); err == nil {
		t.Error("bad flag should error")
	}
}

func TestRunTable1JSON(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), []string{"-exp", "table1", "-json"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"id": "table1"`) {
		t.Errorf("json output wrong:\n%s", b.String())
	}
}

// TestRunJSONWithOutDir checks that -json with -out keeps stdout a pure
// JSON stream: the notes on written files must not land between objects.
func TestRunJSONWithOutDir(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	var b strings.Builder
	if err := run(context.Background(), []string{"-exp", "fig6a", "-seeds", "1", "-quick", "-json", "-out", dir}, &b); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(b.String()))
	objects := 0
	for {
		var v map[string]any
		err := dec.Decode(&v)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("stdout is not a JSON stream after %d objects: %v\n%s", objects, err, b.String())
		}
		objects++
	}
	if objects != 1 {
		t.Errorf("decoded %d JSON objects, want 1", objects)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig6a.csv")); err != nil {
		t.Error(err)
	}
}

func TestRunQuickExperimentWithCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	var b strings.Builder
	if err := run(context.Background(), []string{"-exp", "fig6a", "-seeds", "1", "-quick", "-out", dir}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Figure 6") || !strings.Contains(out, "legend:") {
		t.Errorf("fig6a output wrong:\n%s", out)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "fig6a.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	if len(lines) != 4 { // header + 3 speeds
		t.Errorf("csv has %d lines:\n%s", len(lines), csv)
	}
}
