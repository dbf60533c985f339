package radio

import (
	"math"
	"testing"

	"itsbed/internal/geo"
)

// FuzzGridNeighbors fuzzes the spatial index against its one
// guarantee: after any sequence of Insert/Move, Neighbors(p, r) visits
// every member whose binned position lies within r of p. The input
// byte string encodes an op sequence; a brute-force position mirror
// provides the ground truth.
func FuzzGridNeighbors(f *testing.F) {
	f.Add([]byte{0, 0, 10, 10, 1, 1, 200, 200, 2, 0, 50, 50, 3, 100, 100, 80})
	f.Add([]byte{0, 5, 0, 0, 2, 5, 255, 255, 3, 0, 0, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := NewGrid(16)
		mirror := map[int]geo.Point{}
		coord := func(b byte) float64 { return (float64(b) - 128) * 37.5 }
		for len(data) >= 4 {
			op, id := data[0]%3, int(data[1]%32)
			p := geo.Point{X: coord(data[2]), Y: coord(data[3])}
			// The id byte doubles as the query radius for op 2.
			r := float64(data[1]) * 3
			data = data[4:]
			switch op {
			case 0:
				g.Insert(id, p)
				mirror[id] = p
			case 1:
				g.Move(id, p)
				if _, ok := mirror[id]; ok {
					mirror[id] = p
				}
			case 2:
				visited := map[int]bool{}
				g.Neighbors(p, r, func(id int) { visited[id] = true })
				for id, q := range mirror {
					if math.Hypot(q.X-p.X, q.Y-p.Y) <= r && !visited[id] {
						t.Fatalf("member %d at %v missed by query center %v radius %v", id, q, p, r)
					}
				}
			}
		}
		// Structural invariants hold regardless of the op mix.
		if g.Len() != len(mirror) {
			t.Fatalf("grid len %d, mirror %d", g.Len(), len(mirror))
		}
		for id, q := range mirror {
			got, ok := g.pos[id], g.present[id]
			if !ok || got != q {
				t.Fatalf("member %d binned at %v (%v), mirror %v", id, got, ok, q)
			}
		}
	})
}
