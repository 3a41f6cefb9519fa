// Command bench measures the engine micro-benchmarks of bench_test.go on a
// base commit and on the working tree, in alternating pairs, and writes one
// row per benchmark and unit to BENCH_micro.json at the repository root.
//
// Usage:
//
//	go run ./scripts/bench [base-ref]
//
// base-ref defaults to HEAD, so the default run measures the working tree
// against its parent commit. The base is checked out in a temporary git
// worktree, removed on exit, and each side is built once with go test -c.
//
// A row's verdict is faster or slower only when the change wins (or loses)
// at least nine of every ten pairs, ties counting for neither side, and the
// medians differ by more than the base side's interquartile range; otherwise
// it is noise. Two gates hold on the change side, each on the median of its
// per-invocation ratios; a failing gate exits 1 after the file is written:
//
//   - Compose/full ÷ Compose/reuse ≥ 3: re-running a composed campaign after
//     an edit that reaches no section costs far less than a cold analysis;
//   - ObsOverhead/disabled ÷ AsmCampaign/checkpointed within ±5%: disabled
//     observability stays off the per-plan path.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

const (
	pairs   = 10
	outFile = "BENCH_micro.json"
)

// table is the fixed benchmark set: one go test invocation per entry, side
// and pair. Benchtimes are constants, so both sides and every run measure
// with the same settings.
var table = []struct {
	names     []string // Benchmark<name>, with its sub-benchmarks
	benchtime string
	benchmem  bool
}{
	{[]string{"MachineRun"}, "1s", false},
	{[]string{"MachineLoad"}, "500x", true},
	{[]string{"IRRun"}, "1s", false},
	// One invocation, so that each obs-gate ratio divides two numbers one
	// process measured back to back.
	{[]string{"AsmCampaign", "ObsOverhead"}, "20x", false},
	{[]string{"IRCampaign"}, "20x", false},
	{[]string{"Compose"}, "5x", false},
	{[]string{"ComposeRerun"}, "10x", false},
}

// key names one measurement: a benchmark, without the Benchmark prefix and
// the -GOMAXPROCS suffix, and a unit.
type key struct{ name, unit string }

// run holds one side's measurements in one pair, over all table entries.
type run map[key]float64

// Row is one (benchmark, unit) line of BENCH_micro.json.
type Row struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Change float64 `json:"change_median"`
	*Comparison
}

// Comparison is a row's base side; nil when the base has no such benchmark.
type Comparison struct {
	Base    float64 `json:"base_median"`
	Ratio   float64 `json:"ratio"`       // median of the per-pair change ÷ base
	Wins    int     `json:"change_wins"` // pairs where the change measured lower
	BaseIQR float64 `json:"base_iqr"`    // base interquartile range ÷ base median
	Verdict string  `json:"verdict"`     // faster, slower or noise
}

// Gate is one bound the change side must meet.
type Gate struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Bound string  `json:"bound"`
	Pass  bool    `json:"pass"`
}

// File is BENCH_micro.json.
type File struct {
	Description string `json:"description"`
	Date        string `json:"date"`
	CPU         string `json:"cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Base        string `json:"base"`
	Pairs       int    `json:"pairs"`
	Rows        []Row  `json:"rows"`
	Gates       []Gate `json:"gates"`
}

const description = "Engine micro-benchmarks (bench_test.go), base commit vs working tree, " +
	"measured in alternating pairs by go run ./scripts/bench [base-ref]. Per row: the median of each side, " +
	"ratio = median of the per-pair change/base, change_wins = pairs where the change measured lower (ties count for neither), " +
	"base_iqr = the base side's interquartile range over its median. verdict is faster or slower only when the change wins " +
	"(or loses) at least 9/10 of the pairs and the medians differ by more than the base IQR; otherwise noise. " +
	"Gates hold on the change side, on the median of per-invocation ratios."

var errGate = errors.New("gate failed")

func main() {
	if len(os.Args) > 2 {
		fmt.Fprintln(os.Stderr, "usage: go run ./scripts/bench [base-ref]")
		os.Exit(2)
	}
	ref := "HEAD"
	if len(os.Args) == 2 {
		ref = os.Args[1]
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := measure(ctx, ref)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// measure builds ref and the working tree, runs the table on both in
// alternating pairs, and reports.
func measure(ctx context.Context, ref string) error {
	root, err := command(ctx, "", "git", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	commit, err := command(ctx, root, "git", "rev-parse", "--short", ref+"^{commit}")
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	worktree := filepath.Join(tmp, "base")
	if _, err := command(ctx, root, "git", "worktree", "add", "--detach", "--quiet", worktree, commit); err != nil {
		return err
	}
	defer func() {
		// Not under ctx: the worktree must go even after an interrupt.
		if err := exec.Command("git", "-C", root, "worktree", "remove", "--force", worktree).Run(); err != nil {
			fmt.Fprintln(os.Stderr, "bench: remove worktree:", err)
		}
	}()

	sides := [2]struct{ name, dir, bin string }{
		{"base", worktree, filepath.Join(tmp, "base.test")},
		{"change", root, filepath.Join(tmp, "change.test")},
	}
	for _, s := range sides {
		if _, err := command(ctx, s.dir, "go", "test", "-c", "-o", s.bin, "."); err != nil {
			return err
		}
	}

	var runs [2][]run
	cpu := ""
	for p := 0; p < pairs; p++ {
		order := [2]int{0, 1}
		if p%2 == 1 {
			order = [2]int{1, 0}
		}
		pair := [2]run{{}, {}}
		for _, e := range table {
			args := []string{"-test.run", "^$", "-test.bench", "^Benchmark(" + strings.Join(e.names, "|") + ")$",
				"-test.benchtime", e.benchtime, "-test.timeout", "10m"}
			if e.benchmem {
				args = append(args, "-test.benchmem")
			}
			for _, i := range order {
				s := sides[i]
				fmt.Fprintf(os.Stderr, "pair %d/%d %-6s %s\n", p+1, pairs, s.name, strings.Join(e.names, ","))
				out, err := command(ctx, s.dir, s.bin, args...)
				if err != nil {
					return err
				}
				c, err := parse(out, pair[i])
				if err != nil {
					return err
				}
				if i == 1 && c != "" {
					cpu = c
				}
			}
		}
		runs[0], runs[1] = append(runs[0], pair[0]), append(runs[1], pair[1])
	}
	f := File{CPU: cpu, GOMAXPROCS: runtime.GOMAXPROCS(0), Base: ref + " " + commit}
	return report(f, runs[0], runs[1], filepath.Join(root, outFile), os.Stdout)
}

// command runs name in dir and returns its trimmed standard output.
func command(ctx context.Context, dir, name string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("%s %s: %w\n%s", name, strings.Join(args, " "), err, out)
	}
	return strings.TrimSpace(string(out)), nil
}

var procSuffix = regexp.MustCompile(`-[0-9]+$`)

// parse adds the ns/op and B/op of every benchmark line in go test -bench
// output to into, and returns the cpu: header.
func parse(out string, into run) (cpu string, err error) {
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "cpu:"); ok {
			cpu = strings.TrimSpace(rest)
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := procSuffix.ReplaceAllString(strings.TrimPrefix(f[0], "Benchmark"), "")
		// f[1] is the iteration count; value-unit pairs follow.
		for i := 2; i+1 < len(f); i += 2 {
			if unit := f[i+1]; unit == "ns/op" || unit == "B/op" {
				v, err := strconv.ParseFloat(f[i], 64)
				if err != nil {
					return "", fmt.Errorf("bad %s value in %q", unit, line)
				}
				into[key{name, unit}] = v
			}
		}
	}
	return cpu, nil
}

// report fills f with the rows and gates of the paired runs, writes it to
// path, prints it to w as a table, and returns an error wrapping errGate if
// any gate failed.
func report(f File, base, change []run, path string, w io.Writer) error {
	rows, err := summarize(base, change)
	if err != nil {
		return err
	}
	gates, err := checkGates(change)
	if err != nil {
		return err
	}
	f.Description, f.Date, f.Pairs, f.Rows, f.Gates = description, time.Now().Format("2006-01-02"), len(change), rows, gates
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "benchmark\tunit\tbase\tchange\tratio\twins\tbase IQR\tverdict\t\n")
	for _, r := range rows {
		if r.Comparison == nil {
			fmt.Fprintf(tw, "%s\t%s\t-\t%.0f\t-\t-\t-\t-\t\n", r.Name, r.Unit, r.Change)
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%.0f\t%.0f\t%.3f\t%d/%d\t%.1f%%\t%s\t\n",
			r.Name, r.Unit, r.Base, r.Change, r.Ratio, r.Wins, len(change), r.BaseIQR*100, r.Verdict)
	}
	tw.Flush()
	var failed []string
	for _, g := range gates {
		verdict := "pass"
		if !g.Pass {
			verdict = "FAIL"
			failed = append(failed, g.Name)
		}
		fmt.Fprintf(w, "gate %s = %.3f (%s): %s\n", g.Name, g.Value, g.Bound, verdict)
	}
	if len(failed) > 0 {
		return fmt.Errorf("%w: %s", errGate, strings.Join(failed, "; "))
	}
	return nil
}

// summarize makes one row per (benchmark, unit) the change measured. Every
// such measurement must appear in every change run, and in every base run
// or none; one the base has and the change lacks is an error.
func summarize(base, change []run) ([]Row, error) {
	seen := map[key]bool{}
	for _, r := range append(append([]run(nil), base...), change...) {
		for k := range r {
			seen[k] = true
		}
	}
	keys := make([]key, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].unit > keys[j].unit // ns/op before B/op
	})
	var rows []Row
	for _, k := range keys {
		c, b := values(change, k), values(base, k)
		if len(c) != len(change) {
			return nil, fmt.Errorf("%s %s: missing on the change side in %d of %d pairs", k.name, k.unit, len(change)-len(c), len(change))
		}
		row := Row{Name: k.name, Unit: k.unit, Change: round(median(c))}
		switch len(b) {
		case 0: // new on the change side: nothing to compare against
		case len(base):
			row.Comparison = compare(b, c)
		default:
			return nil, fmt.Errorf("%s %s: missing on the base side in %d of %d pairs", k.name, k.unit, len(base)-len(b), len(base))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func values(runs []run, k key) []float64 {
	var vs []float64
	for _, r := range runs {
		if v, ok := r[k]; ok {
			vs = append(vs, v)
		}
	}
	return vs
}

// compare judges paired measurements, lower being better.
func compare(base, change []float64) *Comparison {
	ratios := make([]float64, len(base))
	wins, losses := 0, 0
	for i := range base {
		ratios[i] = change[i] / base[i]
		if change[i] < base[i] {
			wins++
		} else if change[i] > base[i] {
			losses++
		}
	}
	q1, bm, q3 := quantile(base, 0.25), median(base), quantile(base, 0.75)
	cm := median(change)
	verdict := "noise"
	if math.Abs(cm-bm) > q3-q1 {
		switch n := len(base); {
		case wins*10 >= 9*n:
			verdict = "faster"
		case losses*10 >= 9*n:
			verdict = "slower"
		}
	}
	return &Comparison{
		Base: round(bm), Ratio: round(median(ratios)), Wins: wins,
		BaseIQR: round((q3 - q1) / bm), Verdict: verdict,
	}
}

// checkGates evaluates both gates on the change side's runs.
func checkGates(change []run) ([]Gate, error) {
	speedup, err := medianRatio(change, key{"Compose/full", "ns/op"}, key{"Compose/reuse", "ns/op"})
	if err != nil {
		return nil, err
	}
	overhead, err := medianRatio(change, key{"ObsOverhead/disabled", "ns/op"}, key{"AsmCampaign/checkpointed", "ns/op"})
	if err != nil {
		return nil, err
	}
	return []Gate{
		{"Compose/full ÷ Compose/reuse", round(speedup), "≥ 3", speedup >= 3},
		{"ObsOverhead/disabled ÷ AsmCampaign/checkpointed", round(overhead), "within ±5%", math.Abs(overhead-1) <= 0.05},
	}, nil
}

// medianRatio is the median over runs of num ÷ den.
func medianRatio(runs []run, num, den key) (float64, error) {
	var rs []float64
	for _, r := range runs {
		n, ok := r[num]
		d, ok2 := r[den]
		if !ok || !ok2 {
			return 0, fmt.Errorf("gate %s ÷ %s: missing on the change side", num.name, den.name)
		}
		rs = append(rs, n/d)
	}
	return median(rs), nil
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile interpolates linearly between the closest ranks.
func quantile(vs []float64, q float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// round keeps four decimal places.
func round(x float64) float64 { return math.Round(x*1e4) / 1e4 }
