// Command experiments regenerates the paper's evaluation: every table and
// figure, plus the DESIGN.md ablations. For each experiment it prints an
// aligned table and an ASCII chart, and optionally writes a CSV per
// experiment into an output directory.
//
// Examples:
//
//	experiments -list
//	experiments -exp fig3 -seeds 5
//	experiments -exp paper -out results/
//	experiments -exp all -quick
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"mobic/internal/experiment"
	"mobic/internal/simnet"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// paperIDs are the artifacts published in the paper itself.
var paperIDs = []string{"table1", "fig3", "fig4", "fig5", "fig6a", "fig6b"}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		expID    = fs.String("exp", "paper", `experiment id, "paper" (all published artifacts), or "all"`)
		seeds    = fs.Int("seeds", 3, "replications per sweep cell")
		baseSeed = fs.Uint64("baseseed", 1, "first scenario seed")
		outDir   = fs.String("out", "", "directory for CSV output (empty = none)")
		noChart  = fs.Bool("nochart", false, "suppress ASCII charts")
		quick    = fs.Bool("quick", false, "shorten runs to 300 s for a fast smoke pass")
		list     = fs.Bool("list", false, "list available experiments and exit")
		asJSON   = fs.Bool("json", false, "emit results as JSON instead of tables/charts")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, d := range experiment.All() {
			fmt.Fprintf(out, "%-16s %s\n", d.ID, d.Title)
		}
		return nil
	}

	runner := experiment.Runner{Seeds: *seeds, BaseSeed: *baseSeed}
	if *quick {
		runner.Mutate = func(cfg *simnet.Config) { cfg.Duration = 300 }
	}
	runner.Progress = func(done, total int) {
		if done == total || done%10 == 0 {
			fmt.Fprintf(os.Stderr, "\r  %d/%d runs", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	var ids []string
	switch *expID {
	case "paper":
		ids = paperIDs
	case "all":
		for _, d := range experiment.All() {
			ids = append(ids, d.ID)
		}
	default:
		ids = []string{*expID}
	}

	// Under -json, stdout carries only the JSON stream, so the notes on
	// the files written go to stderr with the progress counter.
	notes := out
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return fmt.Errorf("creating output dir: %w", err)
		}
		if *asJSON {
			notes = os.Stderr
		}
	}

	for _, id := range ids {
		d, err := experiment.ByID(id)
		if err != nil {
			return err
		}
		start := time.Now()
		res, err := d.Run(ctx, runner)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		if *asJSON {
			if err := experiment.WriteJSON(out, res); err != nil {
				return err
			}
		} else {
			fmt.Fprintln(out)
			fmt.Fprint(out, experiment.FormatTable(res))
			if !*noChart {
				if chart := experiment.Chart(res); chart != "" {
					fmt.Fprint(out, chart)
				}
			}
			fmt.Fprintf(out, "  [%s in %v]\n", id, time.Since(start).Round(time.Millisecond))
		}

		if *outDir != "" && len(res.X) > 0 {
			path := filepath.Join(*outDir, id+".csv")
			f, err := os.Create(path)
			if err != nil {
				return fmt.Errorf("creating %s: %w", path, err)
			}
			err = experiment.WriteCSV(f, res)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return fmt.Errorf("writing %s: %w", path, err)
			}
			svgPath := filepath.Join(*outDir, id+".svg")
			if err := os.WriteFile(svgPath, []byte(experiment.SVG(res)), 0o644); err != nil {
				return fmt.Errorf("writing %s: %w", svgPath, err)
			}
			fmt.Fprintf(notes, "  wrote %s and %s\n", path, svgPath)
		}
	}
	return nil
}
