// Package search implements the provenance-enhanced search re-ranking of
// §2.2, following Shah et al.: content search produces an initial result
// set; the provenance DAG then links results the way hyperlinks link web
// pages, and P rounds of weight propagation along those links re-rank the
// results and surface related files content search missed.
package search

import (
	"sort"
	"strings"

	"passcloud/internal/prov"
)

// Result is one ranked search hit.
type Result struct {
	Ref    prov.Ref
	Name   string
	Weight float64
}

// Options tunes the propagation.
type Options struct {
	// Rounds is P, the number of DAG traversals (Shah uses a small
	// constant; 3 is the default).
	Rounds int
	// Damping is the fraction of a node's weight passed to each neighbour
	// per round.
	Damping float64
	// KeepProcesses includes process nodes in the ranked output; by
	// default only files are returned, as in desktop search.
	KeepProcesses bool
}

// DefaultOptions matches the package documentation.
func DefaultOptions() Options {
	return Options{Rounds: 3, Damping: 0.4}
}

// Rerank propagates weights from the seed set over the provenance graph
// and returns the re-ranked (and possibly expanded) result list, highest
// weight first. Seeds typically come from a content-based search and start
// with weight 1.
func Rerank(g *prov.Graph, seeds []prov.Ref, opts Options) []Result {
	if opts.Rounds <= 0 {
		opts.Rounds = 3
	}
	if opts.Damping <= 0 {
		opts.Damping = 0.4
	}
	weight := make(map[prov.Ref]float64)
	for _, s := range seeds {
		if g.Node(s) != nil {
			weight[s] = 1
		}
	}

	// Precompute the undirected adjacency once: provenance edges count in
	// both directions (an input is as related to its output as vice
	// versa), mirroring how Shah treats inter-file dependency links.
	adj := make(map[prov.Ref][]prov.Ref)
	for _, n := range g.Nodes() {
		for _, rec := range n.Records {
			if rec.IsXref() && g.Node(rec.Xref) != nil {
				adj[n.Ref] = append(adj[n.Ref], rec.Xref)
				adj[rec.Xref] = append(adj[rec.Xref], n.Ref)
			}
		}
	}

	for round := 0; round < opts.Rounds; round++ {
		delta := make(map[prov.Ref]float64, len(weight))
		for ref, w := range weight {
			neighbours := adj[ref]
			if len(neighbours) == 0 || w == 0 {
				continue
			}
			share := w * opts.Damping / float64(len(neighbours))
			for _, nb := range neighbours {
				delta[nb] += share
			}
		}
		for ref, d := range delta {
			weight[ref] += d
		}
	}

	out := make([]Result, 0, len(weight))
	for ref, w := range weight {
		n := g.Node(ref)
		if n == nil || w == 0 {
			continue
		}
		if !opts.KeepProcesses && n.Type == prov.Process {
			continue
		}
		out = append(out, Result{Ref: ref, Name: n.Name, Weight: w})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].Ref.Compare(out[j].Ref) < 0
	})
	return out
}

// ContentSearch is the naive content phase: it matches names against a
// substring (standing in for full-text match over downloaded objects) and
// returns the seed refs for Rerank.
func ContentSearch(g *prov.Graph, substr string) []prov.Ref {
	var out []prov.Ref
	for _, n := range g.Nodes() {
		if n.Type != prov.Process && substr != "" && strings.Contains(n.Name, substr) {
			out = append(out, n.Ref)
		}
	}
	return out
}
