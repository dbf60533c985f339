package radio

import (
	"math"

	"itsbed/internal/geo"
)

// gridCell addresses one square bin of the spatial index.
type gridCell struct{ cx, cy int32 }

// Grid is a uniform spatial hash over the local plane used by the
// medium to cull reception checks: members (radio interfaces, by id)
// are binned into square cells of cellSize metres, and a neighborhood
// query visits every member whose *binned* position lies within the
// query radius — possibly more (cell granularity), never fewer.
//
// The guarantee callers rely on (and FuzzGridNeighbors checks): after
// any sequence of Insert/Move, Neighbors(p, r) visits every member
// whose last binned position q satisfies |q-p| <= r. Staleness between
// a member's true and binned position is the caller's to bound (the
// medium re-bins on transmit and on a periodic tick, and widens the
// query by a slack margin).
type Grid struct {
	cellSize float64
	cells    map[gridCell][]int32
	// where[id] is the member's current cell; pos[id] its binned
	// position. present[id] marks membership.
	where   []gridCell
	pos     []geo.Point
	present []bool
}

// NewGrid creates an empty grid with the given cell size in metres.
// Non-positive or non-finite sizes are clamped to 1 m.
func NewGrid(cellSize float64) *Grid {
	if !(cellSize > 0) || math.IsInf(cellSize, 1) {
		cellSize = 1
	}
	return &Grid{cellSize: cellSize, cells: make(map[gridCell][]int32)}
}

// cellOf bins a position. Non-finite coordinates collapse onto the
// origin cell so a broken PositionFunc degrades to a full scan of that
// cell rather than a lost member.
func (g *Grid) cellOf(p geo.Point) gridCell {
	return gridCell{cx: clampCell(p.X / g.cellSize), cy: clampCell(p.Y / g.cellSize)}
}

// clampCell converts a cell coordinate to int32, saturating so that
// positions beyond ±2^31 cells (or NaN) still map to a valid cell.
func clampCell(v float64) int32 {
	f := math.Floor(v)
	switch {
	case math.IsNaN(f):
		return 0
	case f <= math.MinInt32:
		return math.MinInt32
	case f >= math.MaxInt32:
		return math.MaxInt32
	default:
		return int32(f)
	}
}

// Insert adds member id at position p. Inserting an existing id moves
// it. Ids must be small non-negative integers (interface ids).
func (g *Grid) Insert(id int, p geo.Point) {
	for id >= len(g.present) {
		g.present = append(g.present, false)
		g.where = append(g.where, gridCell{})
		g.pos = append(g.pos, geo.Point{})
	}
	if g.present[id] {
		g.Move(id, p)
		return
	}
	c := g.cellOf(p)
	g.present[id] = true
	g.where[id] = c
	g.pos[id] = p
	g.cells[c] = append(g.cells[c], int32(id))
}

// Move re-bins member id to position p. A no-op for unknown ids.
func (g *Grid) Move(id int, p geo.Point) {
	if id < 0 || id >= len(g.present) || !g.present[id] {
		return
	}
	c := g.cellOf(p)
	g.pos[id] = p
	old := g.where[id]
	if c == old {
		return
	}
	members := g.cells[old]
	for i, m := range members {
		if int(m) == id {
			members[i] = members[len(members)-1]
			g.cells[old] = members[:len(members)-1]
			break
		}
	}
	if len(g.cells[old]) == 0 {
		delete(g.cells, old)
	}
	g.where[id] = c
	g.cells[c] = append(g.cells[c], int32(id))
}

// Len reports the number of members in the grid.
func (g *Grid) Len() int {
	n := 0
	for _, members := range g.cells {
		n += len(members)
	}
	return n
}

// Neighbors visits every member binned in a cell that intersects the
// square [p.X±r, p.Y±r] — a superset of all members whose binned
// position is within Euclidean distance r of p. Visit order is
// deterministic (cells in row-major order, members in bin order), but
// callers needing the brute-force iteration order must sort the ids
// themselves.
func (g *Grid) Neighbors(p geo.Point, r float64, visit func(id int)) {
	if r < 0 || math.IsNaN(r) {
		return
	}
	loX := clampCell((p.X - r) / g.cellSize)
	hiX := clampCell((p.X + r) / g.cellSize)
	loY := clampCell((p.Y - r) / g.cellSize)
	hiY := clampCell((p.Y + r) / g.cellSize)
	// A degenerate query (NaN center) falls back to scanning every
	// cell so the superset guarantee holds unconditionally.
	if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(r, 1) {
		for id, ok := range g.present {
			if ok {
				visit(id)
			}
		}
		return
	}
	// When the query covers more cells than exist, iterating the map
	// would be faster but non-deterministic; scan members instead.
	span := (int64(hiX) - int64(loX) + 1) * (int64(hiY) - int64(loY) + 1)
	if span >= int64(len(g.cells)) && int64(g.Len()) < span {
		for id, ok := range g.present {
			if !ok {
				continue
			}
			c := g.where[id]
			if c.cx >= loX && c.cx <= hiX && c.cy >= loY && c.cy <= hiY {
				visit(id)
			}
		}
		return
	}
	for cy := loY; ; cy++ {
		for cx := loX; ; cx++ {
			for _, id := range g.cells[gridCell{cx, cy}] {
				visit(int(id))
			}
			if cx == hiX {
				break
			}
		}
		if cy == hiY {
			break
		}
	}
}
