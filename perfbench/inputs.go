package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/graph/gstore"
	"repro/internal/pagerank"
	"repro/internal/serve"
)

// Input shapes. The graphs are fixed (graph seed 1, as in CI) so that
// runs with different workload seeds measure the same data; the
// workload seed drives the query streams and the build seeds. The
// serving workloads share a twitter-like graph of servingN vertices,
// generated in every set-up; the out-of-core workload reads one
// powerlaw file (the CI out-of-core shape), generated once per
// checkout because its generation alone takes about a minute.
const (
	servingN    = 50000
	servingSeed = 1
	oocSeed     = 1
	oocMean     = 12
	// oocTarget is the gstore file size the out-of-core graph is
	// sized for, and oocMem the page budget it is served under.
	oocTarget = 64 << 20
	oocMem    = 12 << 20
)

// oocVertices sizes the out-of-core graph for oocTarget bytes the way
// `gengraph -target-bytes -relabel` does: 16 offset bytes, 8 bytes per
// edge (both directions) and 4 perm bytes per vertex.
func oocVertices() int { return (oocTarget - 256) / (16 + 8*oocMean + 4) }

// Cache holds prepared inputs under dir, keyed by workload input and
// seed, so repeated runs do not regenerate them. Preparation time is
// reported as prep_s and never counted in setup_s.
type Cache struct {
	dir  string
	prep time.Duration
}

func (c *Cache) path(parts ...string) string {
	return filepath.Join(append([]string{c.dir}, parts...)...)
}

// servingGraph generates the serving workloads' graph. It is not
// cached: its generation is part of every serving set-up.
func servingGraph(tr *Tracer) (*graph.Graph, error) {
	sp := tr.Begin("gen.PowerLaw", 0, "")
	defer sp.End()
	return gen.PowerLaw(gen.TwitterLike(servingN, servingSeed))
}

// ServingRef returns pagerank.Exact's ranks for the serving graph g,
// from the cache when present.
func (c *Cache) ServingRef(g *graph.Graph) ([]float64, error) {
	p := c.path(fmt.Sprintf("exact-twitter%d-seed%d.f64", servingN, servingSeed))
	if v, err := readFloats(p, g.NumVertices()); err == nil {
		return v, nil
	}
	start := time.Now()
	res, err := pagerank.Exact(g, pagerank.Options{})
	if err != nil {
		return nil, fmt.Errorf("exact reference: %w", err)
	}
	if err := writeFloats(p, res.Rank); err != nil {
		return nil, err
	}
	c.prep += time.Since(start)
	return res.Rank, nil
}

// OOC is the prepared out-of-core input.
type OOC struct {
	Graph       string // relabeled gstore v2 file
	SnapshotDir string // holds the snapshot a resident build persisted
	Exact       string // exact PageRank of the graph
}

// OOCInputs returns the out-of-core inputs, preparing them in a child
// process on first use so the preparation's memory never shows in this
// process's peak RSS.
func (c *Cache) OOCInputs() (OOC, error) {
	dir := c.path(fmt.Sprintf("ooc-powerlaw-%d-seed%d", oocTarget>>20, oocSeed))
	in := OOC{
		Graph:       filepath.Join(dir, "graph.csr"),
		SnapshotDir: filepath.Join(dir, "state"),
		Exact:       filepath.Join(dir, "exact.f64"),
	}
	done := filepath.Join(dir, "done")
	if _, err := os.Stat(done); err == nil {
		return in, nil
	}
	start := time.Now()
	self, err := os.Executable()
	if err != nil {
		return in, err
	}
	cmd := exec.Command(self, "-prep-ooc", dir)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return in, fmt.Errorf("preparing out-of-core inputs: %w", err)
	}
	if _, err := os.Stat(done); err != nil {
		return in, fmt.Errorf("out-of-core preparation left no marker: %w", err)
	}
	c.prep += time.Since(start)
	return in, nil
}

// prepOOC writes the out-of-core inputs into dir: the relabeled graph
// file, a snapshot built by a resident FrogWild run, and the exact
// reference. It runs in its own process (see OOCInputs).
func prepOOC(dir string) error {
	if err := os.MkdirAll(filepath.Join(dir, "state"), 0o755); err != nil {
		return err
	}
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		N: oocVertices(), MeanOutDeg: oocMean, DegExponent: 2.1, PrefExponent: 1.0, Seed: oocSeed,
	})
	if err != nil {
		return err
	}
	rg, err := gstore.Relabel(g)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "graph.csr")
	if err := gstore.Save(path, rg); err != nil {
		return err
	}
	res, err := gstore.Open(path, gstore.OpenOptions{})
	if err != nil {
		return err
	}
	defer res.Close()
	snap, err := serve.Build(res, serve.BuildConfig{Seed: oocSeed})
	if err != nil {
		return err
	}
	if err := serve.SaveSnapshot(serve.SnapshotPath(filepath.Join(dir, "state")), snap); err != nil {
		return err
	}
	ex, err := pagerank.Exact(res, pagerank.Options{})
	if err != nil {
		return err
	}
	if err := writeFloats(filepath.Join(dir, "exact.f64"), ex.Rank); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "done"), nil, 0o644)
}

func writeFloats(path string, v []float64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func readFloats(path string, n int) ([]float64, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(buf) != 8*n {
		return nil, fmt.Errorf("%s: %d bytes, want %d", path, len(buf), 8*n)
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return v, nil
}
