package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/graph"
)

// layoutDigest hashes every observable field of a layout: each
// vertex's master and presence list, and each view's vertex list,
// local out/in CSRs, master list and LocalIndex answer for every global
// vertex (present or absent).
func layoutDigest(lay *Layout) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	putU32s := func(xs []uint32) {
		put(uint64(len(xs)))
		for _, x := range xs {
			put(uint64(x))
		}
	}
	n := lay.Graph().NumVertices()
	put(uint64(lay.NumMachines()))
	for v := 0; v < n; v++ {
		pres := lay.Presences(graph.VertexID(v))
		put(uint64(lay.MasterOf(graph.VertexID(v))))
		put(uint64(len(pres)))
		for _, m := range pres {
			put(uint64(m))
		}
	}
	for m := 0; m < lay.NumMachines(); m++ {
		view := lay.View(m)
		put(uint64(view.ID()))
		putU32s(view.Verts())
		for li := range view.Verts() {
			putU32s(view.OutNeighborsLocal(int32(li)))
			putU32s(view.InNeighborsLocal(int32(li)))
		}
		putU32s(view.Masters())
		for v := 0; v < n; v++ {
			li, ok := view.LocalIndex(graph.VertexID(v))
			if !ok {
				put(^uint64(0))
				continue
			}
			put(uint64(li))
		}
	}
	return h.Sum64()
}

// TestLayoutGolden pins the complete layout for every partitioner at
// cluster sizes covering the single-machine, small, typical and
// multi-word (>64 machines) presence paths. The graph has one isolated
// vertex, which no machine hosts. Any change to NewLayout must leave
// these digests untouched.
func TestLayoutGolden(t *testing.T) {
	const isolated = 17
	var edges []graph.Edge
	for _, e := range testGraph(t, 600, 21).EdgeSlice() {
		if e.Src != isolated && e.Dst != isolated {
			edges = append(edges, e)
		}
	}
	g := graph.FromEdges(600, edges)
	want := map[string]uint64{
		"random/1":     0xdca05593497205d4,
		"random/3":     0xb366b62f8e8d77a4,
		"random/16":    0xcd0ced93ed7c3c82,
		"random/70":    0x80d4619a0f0ec4d0,
		"oblivious/1":  0xdca05593497205d4,
		"oblivious/3":  0xeb7d4cca98fb2fd8,
		"oblivious/16": 0x7382d34cc636640d,
		"oblivious/70": 0xbe39b3d8e2eb40e7,
		"grid/1":       0xdca05593497205d4,
		"grid/3":       0xa27e79aae7e886b9,
		"grid/16":      0x5d902ca2324f8c,
		"grid/70":      0x60ffe3f7e541c3c2,
		"hdrf/1":       0xdca05593497205d4,
		"hdrf/3":       0xd0632a2fae519a12,
		"hdrf/16":      0x3f788a856a5993a5,
		"hdrf/70":      0xf5b3e0e4b52675b0,
	}
	for _, p := range []Partitioner{Random{}, Oblivious{}, Grid{}, HDRF{}} {
		for _, machines := range []int{1, 3, 16, 70} {
			name := fmt.Sprintf("%s/%d", p.Name(), machines)
			lay, err := NewLayout(g, machines, p, 5)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := lay.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := layoutDigest(lay); got != want[name] {
				t.Errorf("%s: digest %#x, want %#x", name, got, want[name])
			}
		}
	}
}
