package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runAA is the steadiness check: every workload run n times from this one
// build, each with another seed and each in a process of its own (as the
// driver runs them), then per end-to-end metric and workload the minimum,
// median and maximum, and the spread — the distance between the first and
// third quartile as a share of the median — against the metric's bound. It
// fails if any spread exceeds its bound.
func runAA(n int, cfg runConfig) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := workloadNames
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	worst := 0.0
	var over []string
	for _, w := range names {
		vals := map[string]sample{}
		for i := 0; i < n; i++ {
			seed := cfg.seed + int64(i)
			m, err := runChild(self, w, seed, cfg.seconds)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			for name, v := range m {
				vals[name] = append(vals[name], v)
			}
			fmt.Fprintf(os.Stderr, "aa: %s seed %d done\n", w, seed)
		}
		fmt.Printf("%-14s %-20s %14s %14s %14s %8s %8s\n", w, "metric", "min", "median", "max", "spread", "bound")
		for _, d := range endToEnd {
			s := vals[d.Name]
			sp := s.spread()
			flag := ""
			if d.Name != "setup_s" {
				if sp > d.Bound {
					flag = "  OVER BOUND"
					over = append(over, w+"/"+d.Name)
				} else if sp > d.Bound/3 {
					flag = "  over a third of the bound"
				}
				worst = max(worst, sp/d.Bound)
			}
			fmt.Printf("%-14s %-20s %14.6g %14.6g %14.6g %7.2f%% %7.2f%%%s\n",
				"", d.Name, s.min(), s.median(), s.max(), 100*sp, 100*d.Bound, flag)
		}
	}
	fmt.Printf("worst spread is %.0f%% of its bound\n", 100*worst)
	if len(over) > 0 {
		return fmt.Errorf("spread exceeds the bound for %s", strings.Join(over, ", "))
	}
	return nil
}

// runChild runs one untraced workload in a child process and parses the
// result line.
func runChild(self, workload string, seed int64, seconds float64) (map[string]float64, error) {
	cmd := exec.Command(self,
		"--workload", workload,
		"--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"--trace", "0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output() // waits for the child to exit
	if err != nil {
		return nil, fmt.Errorf("%w: %s", err, strings.TrimSpace(stderr.String()))
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res struct {
		Correct bool                   `json:"correct"`
		Metrics map[string]metricValue `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("parsing result line: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("run reported correct=false")
	}
	m := make(map[string]float64, len(res.Metrics))
	for name, v := range res.Metrics {
		m[name] = v.Value
	}
	return m, nil
}
