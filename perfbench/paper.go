package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"

	"cuisinevol/internal/evomodel"
	"cuisinevol/internal/experiment"
	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/itemset"
	"cuisinevol/internal/randx"
	"cuisinevol/internal/recipe"
)

const (
	paperReplicates = 100 // the paper's ensemble size
	paperSupport    = 0.05
	sampleRegions   = 3 // regions in the evomodel/itemset sample
	sampleReps      = 2 // replicates per (region, kind) in the sample
	// paperMinRuns is the fewest pipeline runs a timed phase makes, even
	// when one run outlasts the phase: wall_s is their median.
	paperMinRuns = 2
)

// cliRun is one finished child process.
type cliRun struct {
	wall   time.Duration
	rssMB  float64
	stdout []byte
}

// runCLI runs the built CLI to completion and reports its wall time and
// peak resident memory.
func runCLI(bin string, args ...string) (*cliRun, error) {
	cmd := exec.Command(bin, args...)
	// The child dies with the harness, so no run outlives the benchmark.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("cuisinevol %v: %w: %s", args, err, stderr.String())
	}
	run := &cliRun{wall: wall, stdout: stdout.Bytes()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		run.rssMB = float64(ru.Maxrss) / 1024
	}
	return run, nil
}

// allArgs are the arguments of the researcher's run over the corpus
// file set-up generated; the seed drives the model replicates.
func allArgs(rc *runConfig, corpusFile, outdir string, extra ...string) []string {
	args := []string{"all", "-corpus", corpusFile, "-seed", strconv.FormatUint(rc.seed, 10),
		"-replicates", strconv.Itoa(paperReplicates), "-outdir", outdir}
	return append(args, extra...)
}

// diffDirs lists how two artifact directories differ: missing or extra
// files and files whose bytes differ.
func diffDirs(want, got string) ([]string, error) {
	list := func(dir string) (map[string][]byte, error) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		out := make(map[string][]byte, len(entries))
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				return nil, err
			}
			out[e.Name()] = b
		}
		return out, nil
	}
	w, err := list(want)
	if err != nil {
		return nil, err
	}
	g, err := list(got)
	if err != nil {
		return nil, err
	}
	var diffs []string
	for name, wb := range w {
		gb, ok := g[name]
		switch {
		case !ok:
			diffs = append(diffs, name+": missing")
		case !bytes.Equal(wb, gb):
			diffs = append(diffs, name+": bytes differ")
		}
	}
	for name := range g {
		if _, ok := w[name]; !ok {
			diffs = append(diffs, name+": unexpected")
		}
	}
	sort.Strings(diffs)
	return diffs, nil
}

// reference returns the directory holding the reference stdout and
// artifacts for this seed: a serial (-workers 1) run of the same binary,
// cached under the binary's digest. The pipeline's bytes do not depend
// on the worker count, so every timed run must match it exactly.
func reference(rc *runConfig, corpusFile string) (string, error) {
	sum, err := fileDigest(rc.bin)
	if err != nil {
		return "", err
	}
	dir := filepath.Join(rc.out, "ref", fmt.Sprintf("%s-seed%d-scale%g", sum[:16], rc.seed, rc.scale))
	if _, err := os.Stat(filepath.Join(dir, "complete")); err == nil {
		return dir, nil
	}
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	run, err := runCLI(rc.bin, allArgs(rc, corpusFile, filepath.Join(dir, "artifacts"), "-workers", "1")...)
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(dir, "stdout"), run.stdout, 0o644); err != nil {
		return "", err
	}
	return dir, os.WriteFile(filepath.Join(dir, "complete"), nil, 0o644)
}

func runPaperAll(rc *runConfig) (*outcome, error) {
	o := newOutcome()
	scratch := filepath.Join(rc.out, "paper-all")
	if err := os.RemoveAll(scratch); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	// The pipeline's set-up is its corpus: generate the corpus file
	// through the CLI, setupRuns times, and check its bytes against an
	// in-process generation.
	var setups []float64
	corpusFile := filepath.Join(scratch, "corpus.jsonl")
	for i := 0; i < setupRuns; i++ {
		run, err := runCLI(rc.bin, "gen", "-seed", strconv.FormatUint(corpusSeed, 10),
			"-scale", strconv.FormatFloat(rc.scale, 'g', -1, 64), "-out", corpusFile)
		if err != nil {
			return nil, err
		}
		setups = append(setups, run.wall.Seconds())
	}
	corpus, _, err := generate(rc, corpusSeed)
	if err != nil {
		return nil, err
	}
	var want bytes.Buffer
	if err := corpus.WriteJSONL(&want); err != nil {
		return nil, err
	}
	got, err := os.ReadFile(corpusFile)
	if err != nil {
		return nil, err
	}
	o.attempted++
	if !bytes.Equal(got, want.Bytes()) {
		o.fail("cuisinevol gen: corpus differs from synth.Generate at the same seed")
	}
	if rc.tr != nil {
		return tracePaperAll(rc, scratch, corpusFile, o)
	}

	ref, err := reference(rc, corpusFile)
	if err != nil {
		return nil, err
	}
	refStdout, err := os.ReadFile(filepath.Join(ref, "stdout"))
	if err != nil {
		return nil, err
	}

	var walls []float64
	var rss float64
	start := time.Now()
	for i := 0; i < paperMinRuns || time.Since(start) < rc.timed; i++ {
		dir := filepath.Join(scratch, fmt.Sprintf("run%d", i))
		o.attempted++
		run, err := runCLI(rc.bin, allArgs(rc, corpusFile, dir)...)
		if err != nil {
			o.fail("run %d: %v", i, err)
			continue
		}
		walls = append(walls, run.wall.Seconds())
		rss = max(rss, run.rssMB)
		diffs, err := diffDirs(filepath.Join(ref, "artifacts"), dir)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(run.stdout, refStdout) {
			diffs = append(diffs, "stdout differs")
		}
		if len(diffs) > 0 {
			o.fail("run %d differs from the -workers 1 reference: %v", i, diffs[:min(len(diffs), 5)])
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(start)
	if len(walls) == 0 {
		return nil, fmt.Errorf("no pipeline run completed")
	}
	sorted := append([]float64(nil), walls...)
	sort.Float64s(sorted)
	o.e2e["setup_s"] = median(setups)
	o.e2e["wall_s"] = median(walls)
	o.e2e["peak_rss_mb"] = rss
	o.e2e["throughput_rps"] = float64(len(walls)) / elapsed.Seconds()
	o.e2e["latency_p50_ms"] = median(walls) * 1000
	o.e2e["latency_p99_ms"] = sorted[len(sorted)-1] * 1000 // too few runs for a p99: the slowest
	o.detail["runs"] = float64(len(walls))
	finish(o)
	return o, nil
}

// tracePaperAll is the traced run: one untraced child run for the
// end-to-end time, then the same pipeline in process with a span around
// each experiment.Run* call, then a sample of evomodel.Run replicates
// and their raw itemset.Mine.
func tracePaperAll(rc *runConfig, scratch, corpusFile string, o *outcome) (*outcome, error) {
	tr := rc.tr
	childDir := filepath.Join(scratch, "child")
	o.attempted++
	child, err := runCLI(rc.bin, allArgs(rc, corpusFile, childDir)...)
	if err != nil {
		return nil, err
	}

	inDir := filepath.Join(scratch, "inproc")
	cfg := &experiment.Config{Seed: rc.seed, MinSupport: paperSupport, Replicates: paperReplicates, OutDir: inDir}
	ctx := context.Background()
	root := tr.newID()
	start := time.Now()
	var corpus *recipe.Corpus
	stages := []struct {
		span, metric string
		run          func() error
	}{
		{"synth.generate", "synth.generate_s", func() (err error) {
			corpus, _, err = generate(rc, corpusSeed)
			cfg.SetCorpus(corpus)
			return err
		}},
		{"experiment.table1", "experiment.table1_s", func() error { _, err := experiment.RunTableI(cfg); return err }},
		{"experiment.fig1", "experiment.fig1_s", func() error { _, err := experiment.RunFig1(cfg); return err }},
		{"experiment.fig2", "experiment.fig2_s", func() error { _, err := experiment.RunFig2(cfg); return err }},
		{"experiment.fig3", "experiment.fig3_s", func() error { _, err := experiment.RunFig3Ctx(ctx, cfg); return err }},
		{"experiment.fig4", "experiment.fig4_s", func() error {
			_, err := experiment.RunFig4Ctx(ctx, cfg, experiment.Fig4Options{})
			return err
		}},
		{"experiment.fig4_categories", "experiment.fig4_categories_s", func() error {
			_, err := experiment.RunFig4Ctx(ctx, cfg, experiment.Fig4Options{Categories: true})
			return err
		}},
	}
	for _, st := range stages {
		var err error
		d := tr.timed(st.span, root, root, func() { err = st.run() })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", st.span, err)
		}
		o.layers[st.metric] = d.Seconds()
	}
	end := time.Now()
	tr.record(root, 0, root, "paper.pipeline", start, end)
	diffs, err := diffDirs(childDir, inDir)
	if err != nil {
		return nil, err
	}
	if len(diffs) > 0 {
		o.fail("cuisinevol all differs from the in-process pipeline: %v", diffs[:min(len(diffs), 5)])
	}

	if err := sampleReplicates(rc, corpus, o); err != nil {
		return nil, err
	}
	share, err := accountedShare(tr.snapshot(), "paper.pipeline")
	if err != nil {
		return nil, err
	}
	o.layers["trace.accounted_share"] = share
	o.layers["trace.overhead"] = end.Sub(start).Seconds()/child.wall.Seconds() - 1
	o.detail["child_wall_s"] = child.wall.Seconds()
	o.detail["inproc_wall_s"] = end.Sub(start).Seconds()
	finish(o)
	return o, nil
}

// sampleReplicates times evomodel.Run and the raw itemset.Mine of its
// pool on a seeded sample of regions, every model kind and a few
// replicates.
func sampleReplicates(rc *runConfig, corpus *recipe.Corpus, o *outcome) error {
	tr := rc.tr
	regions := append([]string(nil), corpus.Regions()...)
	sort.Strings(regions)
	rng := randx.New(rc.seed ^ 0x70617065720001)
	var runMS, mineMS, sets []float64
	for _, i := range rng.Perm(len(regions))[:min(sampleRegions, len(regions))] {
		view := corpus.Region(regions[i])
		for _, kind := range evomodel.Kinds() {
			for rep := 0; rep < sampleReps; rep++ {
				params := evomodel.ParamsForView(view, kind, rc.seed+uint64(rep))
				root := tr.newID()
				start := time.Now()
				var pool [][]ingredient.ID
				var err error
				d := tr.timed("evomodel.run", root, root, func() { pool, err = evomodel.Run(params, corpus.Lexicon()) })
				if err != nil {
					return err
				}
				runMS = append(runMS, ms(d))
				var res *itemset.Result
				d = tr.timed("itemset.mine_raw", root, root, func() {
					res, err = itemset.Mine(pool, paperSupport, itemset.MineOptions{})
				})
				if err != nil {
					return err
				}
				mineMS = append(mineMS, ms(d))
				sets = append(sets, float64(len(res.Sets)))
				tr.record(root, 0, root, "probe.replicate", start, time.Now())
			}
		}
	}
	o.layers["evomodel.run_ms"] = mean(runMS)
	o.layers["itemset.mine_raw_ms"] = mean(mineMS)
	o.layers["itemset.sets_per_mine"] = mean(sets)
	return nil
}
