package cluster

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/graph"
)

// Layout is the realized placement of a graph on a cluster: the
// edge→machine assignment, the per-vertex replica (presence) sets, the
// master replica of every vertex, and per-machine local sub-graphs in
// CSR form. It is immutable once built and shared by all engine runs.
//
// All indexes are dense arrays. Vertex v's replicas occupy the slots
// presOff[v]:presOff[v+1] of presList (the machine) and presLocal (v's
// local index on that machine), so a MachineView answers LocalIndex
// from v's own slots. The indexes take O(n + Σ replicas) memory,
// independent of the machine count, and the local CSRs take
// O(Σ replicas + edges).
type Layout struct {
	g           *graph.Graph
	machines    int
	partitioner string

	master []uint16 // master machine per vertex

	// presence slots of v: presOff[v]:presOff[v+1]. presList holds the
	// machines, master first and mirrors ascending; presLocal holds v's
	// local index on each of them.
	presOff   []int64
	presList  []uint16
	presLocal []int32

	views []MachineView
}

// MachineView is one machine's local slice of the graph: the vertices
// present on the machine and the locally-owned edges, in local CSR
// form. Engine goroutines operate on views concurrently; views are
// read-only after construction.
type MachineView struct {
	id  int
	lay *Layout // LocalIndex reads the layout's presence slots

	verts []uint32 // present vertices, ascending; position = local index

	outOff []int64
	outAdj []uint32
	inOff  []int64
	inAdj  []uint32

	masters []uint32 // vertices whose master replica is here
}

// NewLayout partitions g across the given number of machines using the
// partitioner and returns the realized layout. The seed feeds both the
// partitioner and the master-selection hash.
func NewLayout(g *graph.Graph, machines int, p Partitioner, seed uint64) (*Layout, error) {
	if machines < 1 || machines > MaxMachines {
		return nil, fmt.Errorf("cluster: machine count %d out of range", machines)
	}
	if g.NumVertices() == 0 {
		return nil, fmt.Errorf("cluster: empty graph")
	}
	if p == nil {
		p = Random{}
	}
	placement := p.Place(g, machines, seed)
	if int64(len(placement)) != g.NumEdges() {
		return nil, fmt.Errorf("cluster: partitioner %s returned %d placements for %d edges",
			p.Name(), len(placement), g.NumEdges())
	}

	n := g.NumVertices()
	lay := &Layout{g: g, machines: machines, partitioner: p.Name()}

	// Bucket the edges by machine with a counting sort that keeps CSR
	// order inside each bucket, and record per-(vertex,machine)
	// presence.
	bucketOff := make([]int64, machines+1)
	for _, m := range placement {
		if int(m) >= machines {
			return nil, fmt.Errorf("cluster: partitioner %s placed an edge on machine %d of %d",
				p.Name(), m, machines)
		}
		bucketOff[m+1]++
	}
	for m := 0; m < machines; m++ {
		bucketOff[m+1] += bucketOff[m]
	}
	src := make([]uint32, len(placement))
	dst := make([]uint32, len(placement))
	fill := append([]int64(nil), bucketOff[:machines]...)
	presBits := newPresenceSet(n, machines)
	{
		i := 0
		g.Edges(func(e graph.Edge) bool {
			m := placement[i]
			k := fill[m]
			fill[m]++
			src[k], dst[k] = e.Src, e.Dst
			presBits.set(e.Src, int(m))
			presBits.set(e.Dst, int(m))
			i++
			return true
		})
	}

	// Presence lists and master selection. The master is a hash-chosen
	// member of the presence set, mirroring PowerGraph (the master is
	// always co-located with at least one edge of the vertex).
	lay.presOff = make([]int64, n+1)
	for v := 0; v < n; v++ {
		lay.presOff[v+1] = lay.presOff[v] + int64(presBits.count(graph.VertexID(v)))
	}
	lay.presList = make([]uint16, lay.presOff[n])
	lay.master = make([]uint16, n)
	numVerts := make([]int, machines)
	numMasters := make([]int, machines)
	for v := 0; v < n; v++ {
		span := lay.presList[lay.presOff[v]:lay.presOff[v+1]]
		presBits.collect(graph.VertexID(v), span)
		if len(span) == 0 {
			// Isolated vertex (possible only when dangling vertices are
			// allowed and the vertex has no edges at all): master it by
			// hash on an arbitrary machine with no mirrors.
			continue
		}
		pick := int(hash64(uint64(v)^(seed*0x2545f4914f6cdd1d)) % uint64(len(span)))
		// collect yields machines ascending, so rotating the master to
		// the front leaves the mirrors ascending behind it.
		master := span[pick]
		copy(span[1:pick+1], span[:pick])
		span[0] = master
		lay.master[v] = master
		numMasters[master]++
		for _, m := range span {
			numVerts[m]++
		}
	}

	// Per-machine vertex and master lists, both ascending, and the local
	// index of every presence slot.
	lay.views = make([]MachineView, machines)
	for m := range lay.views {
		lay.views[m] = MachineView{
			id:      m,
			lay:     lay,
			verts:   make([]uint32, 0, numVerts[m]),
			masters: make([]uint32, 0, numMasters[m]),
		}
	}
	lay.presLocal = make([]int32, len(lay.presList))
	for v := 0; v < n; v++ {
		lo, hi := lay.presOff[v], lay.presOff[v+1]
		if lo == hi {
			continue // isolated vertex: no machine hosts it
		}
		home := &lay.views[lay.presList[lo]]
		home.masters = append(home.masters, uint32(v))
		for j := lo; j < hi; j++ {
			view := &lay.views[lay.presList[j]]
			lay.presLocal[j] = int32(len(view.verts))
			view.verts = append(view.verts, uint32(v))
		}
	}

	// Local CSRs from each machine's bucket. Local indexes ascend with
	// global ids and buckets are in CSR order, so the bucket's
	// destinations already are the local out-adjacency; the
	// in-adjacency is a stable counting sort of the bucket by local
	// destination.
	toLocal := make([]int32, n) // global→local scratch, valid for the current view's vertices
	inAdj := make([]uint32, len(placement))
	var pos []int64
	for m := range lay.views {
		view := &lay.views[m]
		for li, v := range view.verts {
			toLocal[v] = int32(li)
		}
		lo, hi := bucketOff[m], bucketOff[m+1]
		nv := len(view.verts)
		view.outOff = make([]int64, nv+1)
		view.inOff = make([]int64, nv+1)
		for k := lo; k < hi; k++ {
			view.outOff[toLocal[src[k]]+1]++
			view.inOff[toLocal[dst[k]]+1]++
		}
		for li := 0; li < nv; li++ {
			view.outOff[li+1] += view.outOff[li]
			view.inOff[li+1] += view.inOff[li]
		}
		view.outAdj = dst[lo:hi:hi]
		view.inAdj = inAdj[lo:hi:hi]
		pos = append(pos[:0], view.inOff[:nv]...)
		for k := lo; k < hi; k++ {
			ld := toLocal[dst[k]]
			view.inAdj[pos[ld]] = src[k]
			pos[ld]++
		}
	}
	return lay, nil
}

// presenceSet tracks which machines host each vertex, with a fast
// single-word path for clusters of at most 64 machines.
type presenceSet struct {
	machines int
	words    int
	small    []uint64   // machines <= 64
	big      [][]uint64 // otherwise, lazily allocated per vertex
}

func newPresenceSet(n, machines int) *presenceSet {
	p := &presenceSet{machines: machines, words: (machines + 63) / 64}
	if machines <= 64 {
		p.small = make([]uint64, n)
	} else {
		p.big = make([][]uint64, n)
	}
	return p
}

func (p *presenceSet) set(v graph.VertexID, m int) {
	if p.small != nil {
		p.small[v] |= 1 << uint(m)
		return
	}
	if p.big[v] == nil {
		p.big[v] = make([]uint64, p.words)
	}
	p.big[v][m/64] |= 1 << uint(m%64)
}

func (p *presenceSet) count(v graph.VertexID) int {
	if p.small != nil {
		return popcount(p.small[v])
	}
	if p.big[v] == nil {
		return 0
	}
	c := 0
	for _, w := range p.big[v] {
		c += popcount(w)
	}
	return c
}

// collect fills dst (of length count(v)) with the machines hosting v in
// ascending order.
func (p *presenceSet) collect(v graph.VertexID, dst []uint16) {
	i := 0
	if p.small != nil {
		w := p.small[v]
		for w != 0 {
			m := trailingZeros(w)
			dst[i] = uint16(m)
			i++
			w &= w - 1
		}
		return
	}
	if p.big[v] == nil {
		return
	}
	for wi, w := range p.big[v] {
		for w != 0 {
			m := wi*64 + trailingZeros(w)
			dst[i] = uint16(m)
			i++
			w &= w - 1
		}
	}
}

func popcount(x uint64) int      { return bits.OnesCount64(x) }
func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }

// Graph returns the underlying graph.
func (l *Layout) Graph() *graph.Graph { return l.g }

// NumMachines returns the cluster size.
func (l *Layout) NumMachines() int { return l.machines }

// PartitionerName reports which ingress strategy built this layout.
func (l *Layout) PartitionerName() string { return l.partitioner }

// MasterOf returns the master machine of v.
func (l *Layout) MasterOf(v graph.VertexID) uint16 { return l.master[v] }

// Presences returns the machines hosting v, master first, mirrors in
// ascending order. The slice aliases internal storage.
func (l *Layout) Presences(v graph.VertexID) []uint16 {
	return l.presList[l.presOff[v]:l.presOff[v+1]]
}

// View returns machine m's local view.
func (l *Layout) View(m int) *MachineView { return &l.views[m] }

// ReplicationFactor returns the average number of replicas per vertex
// that is hosted anywhere (PowerGraph's λ).
func (l *Layout) ReplicationFactor() float64 {
	hosted := 0
	for v := 0; v < l.g.NumVertices(); v++ {
		if l.presOff[v+1] > l.presOff[v] {
			hosted++
		}
	}
	if hosted == 0 {
		return 0
	}
	return float64(len(l.presList)) / float64(hosted)
}

// CutStats summarizes partition quality.
type CutStats struct {
	Machines          int
	ReplicationFactor float64
	// EdgeImbalance is max/mean edges per machine (1.0 = perfect).
	EdgeImbalance float64
	// MasterImbalance is max/mean masters per machine.
	MasterImbalance float64
}

// Stats computes partition-quality statistics.
func (l *Layout) Stats() CutStats {
	s := CutStats{Machines: l.machines, ReplicationFactor: l.ReplicationFactor()}
	maxE, totE := int64(0), int64(0)
	maxM, totM := 0, 0
	for m := 0; m < l.machines; m++ {
		e := int64(len(l.views[m].outAdj))
		totE += e
		if e > maxE {
			maxE = e
		}
		k := len(l.views[m].masters)
		totM += k
		if k > maxM {
			maxM = k
		}
	}
	if totE > 0 {
		s.EdgeImbalance = float64(maxE) * float64(l.machines) / float64(totE)
	}
	if totM > 0 {
		s.MasterImbalance = float64(maxM) * float64(l.machines) / float64(totM)
	}
	return s
}

// Validate checks layout invariants: every edge is owned by exactly one
// machine, presence sets match edge ownership, every hosted vertex's
// master is in its presence set, and local CSRs agree with the global
// graph. It is used by property tests.
func (l *Layout) Validate() error {
	n := l.g.NumVertices()
	var localEdges int64
	for m := 0; m < l.machines; m++ {
		v := &l.views[m]
		localEdges += int64(len(v.outAdj))
		if len(v.outAdj) != len(v.inAdj) {
			return fmt.Errorf("cluster: machine %d out/in edge mismatch", m)
		}
		for li, vert := range v.verts {
			if got, ok := v.LocalIndex(vert); !ok || got != int32(li) {
				return fmt.Errorf("cluster: machine %d local index broken at %d", m, vert)
			}
		}
	}
	if localEdges != l.g.NumEdges() {
		return fmt.Errorf("cluster: %d local edges != %d graph edges", localEdges, l.g.NumEdges())
	}
	for v := 0; v < n; v++ {
		pres := l.Presences(graph.VertexID(v))
		if len(pres) == 0 {
			if l.g.OutDegree(graph.VertexID(v)) > 0 || l.g.InDegree(graph.VertexID(v)) > 0 {
				return fmt.Errorf("cluster: vertex %d has edges but no presence", v)
			}
			continue
		}
		if pres[0] != l.master[v] {
			return fmt.Errorf("cluster: vertex %d master %d not first in presence list", v, l.master[v])
		}
		seen := map[uint16]bool{}
		for _, m := range pres {
			if seen[m] {
				return fmt.Errorf("cluster: vertex %d duplicated presence on %d", v, m)
			}
			seen[m] = true
			if _, ok := l.views[m].LocalIndex(graph.VertexID(v)); !ok {
				return fmt.Errorf("cluster: vertex %d listed on machine %d but absent from view", v, m)
			}
		}
	}
	// Local out-degrees must sum to global out-degree per vertex.
	sum := make([]int64, n)
	for m := 0; m < l.machines; m++ {
		view := &l.views[m]
		for li, vert := range view.verts {
			sum[vert] += view.outOff[li+1] - view.outOff[li]
		}
	}
	for v := 0; v < n; v++ {
		if sum[v] != int64(l.g.OutDegree(graph.VertexID(v))) {
			return fmt.Errorf("cluster: vertex %d local out-degree sum %d != %d",
				v, sum[v], l.g.OutDegree(graph.VertexID(v)))
		}
	}
	return nil
}

// ID returns the machine's id.
func (mv *MachineView) ID() int { return mv.id }

// Verts returns the present vertices in ascending order. The slice
// aliases internal storage.
func (mv *MachineView) Verts() []uint32 { return mv.verts }

// NumLocalEdges returns the number of edges owned by this machine.
func (mv *MachineView) NumLocalEdges() int64 { return int64(len(mv.outAdj)) }

// LocalIndex returns the machine-local dense index of v and whether v
// is present on this machine. It searches v's presence slots: the
// master first, then the ascending mirrors.
func (mv *MachineView) LocalIndex(v graph.VertexID) (int32, bool) {
	l := mv.lay
	lo, hi := l.presOff[v], l.presOff[v+1]
	if lo == hi {
		return 0, false
	}
	id := uint16(mv.id)
	if l.presList[lo] == id {
		return l.presLocal[lo], true
	}
	if j, ok := slices.BinarySearch(l.presList[lo+1:hi], id); ok {
		return l.presLocal[lo+1+int64(j)], true
	}
	return 0, false
}

// OutNeighborsLocal returns the destinations of the machine's local
// out-edges of the vertex at local index li.
func (mv *MachineView) OutNeighborsLocal(li int32) []uint32 {
	return mv.outAdj[mv.outOff[li]:mv.outOff[li+1]]
}

// InNeighborsLocal returns the sources of the machine's local in-edges
// of the vertex at local index li.
func (mv *MachineView) InNeighborsLocal(li int32) []uint32 {
	return mv.inAdj[mv.inOff[li]:mv.inOff[li+1]]
}

// LocalOutDegree returns the local out-degree of the vertex at local
// index li.
func (mv *MachineView) LocalOutDegree(li int32) int {
	return int(mv.outOff[li+1] - mv.outOff[li])
}

// LocalInDegree returns the local in-degree of the vertex at local
// index li.
func (mv *MachineView) LocalInDegree(li int32) int {
	return int(mv.inOff[li+1] - mv.inOff[li])
}

// Masters returns the vertices mastered on this machine, ascending.
func (mv *MachineView) Masters() []uint32 { return mv.masters }

// NumPresent returns the number of vertices present on this machine.
func (mv *MachineView) NumPresent() int { return len(mv.verts) }
