package world

import (
	"math"
	"testing"

	"itsbed/internal/geo"
)

func wallAt(x float64, y0, y1 float64, m Material) Wall {
	return Wall{Segment: geo.Segment{A: geo.Point{X: x, Y: y0}, B: geo.Point{X: x, Y: y1}}, Material: m}
}

func TestObstructionLossAccumulates(t *testing.T) {
	m := NewMap([]Wall{
		wallAt(1, -1, 1, MaterialBrick),
		wallAt(2, -1, 1, MaterialConcrete),
	})
	loss := m.ObstructionLossDB(geo.Point{X: 0}, geo.Point{X: 3})
	want := MaterialBrick.PenetrationLossDB() + MaterialConcrete.PenetrationLossDB()
	if loss != want {
		t.Fatalf("loss %v, want %v", loss, want)
	}
	// One wall only.
	if m.ObstructionLossDB(geo.Point{X: 0}, geo.Point{X: 1.5}) != MaterialBrick.PenetrationLossDB() {
		t.Fatal("partial path loss wrong")
	}
	if m.ObstructionLossDB(geo.Point{X: 0}, geo.Point{X: 0.5}) != 0 {
		t.Fatal("clear path has loss")
	}
}

func TestMaterialOrdering(t *testing.T) {
	if !(MaterialDrywall.PenetrationLossDB() < MaterialBrick.PenetrationLossDB() &&
		MaterialBrick.PenetrationLossDB() < MaterialConcrete.PenetrationLossDB() &&
		MaterialConcrete.PenetrationLossDB() < MaterialMetal.PenetrationLossDB()) {
		t.Fatal("material losses not ordered")
	}
	if Material(0).PenetrationLossDB() != 0 {
		t.Fatal("void material must be lossless")
	}
}

func TestRaycast(t *testing.T) {
	m := NewMap([]Wall{wallAt(3, -5, 5, MaterialBrick)})
	d, ok := m.Raycast(geo.Point{}, geo.Vector{X: 1}, 10)
	if !ok || math.Abs(d-3) > 1e-9 {
		t.Fatalf("raycast d=%v ok=%v, want 3", d, ok)
	}
	// Away from the wall: no hit.
	if _, ok := m.Raycast(geo.Point{}, geo.Vector{X: -1}, 10); ok {
		t.Fatal("hit behind the ray")
	}
	// Beyond range: no hit.
	if _, ok := m.Raycast(geo.Point{}, geo.Vector{X: 1}, 2); ok {
		t.Fatal("hit beyond max range")
	}
	// Diagonal.
	d, ok = m.Raycast(geo.Point{}, geo.Vector{X: 1, Y: 1}, 10)
	if !ok || math.Abs(d-3*math.Sqrt2) > 1e-9 {
		t.Fatalf("diagonal raycast %v", d)
	}
	// Nearest of several walls wins.
	m.AddWall(wallAt(2, -5, 5, MaterialMetal))
	d, _ = m.Raycast(geo.Point{}, geo.Vector{X: 1}, 10)
	if math.Abs(d-2) > 1e-9 {
		t.Fatalf("nearest wall not selected: %v", d)
	}
}

func TestRaycastDegenerate(t *testing.T) {
	m := NewMap([]Wall{wallAt(1, -1, 1, MaterialBrick)})
	if _, ok := m.Raycast(geo.Point{}, geo.Vector{}, 10); ok {
		t.Fatal("zero direction hit something")
	}
	if _, ok := m.Raycast(geo.Point{}, geo.Vector{X: 1}, 0); ok {
		t.Fatal("zero range hit something")
	}
}

// AddWall appends a wall.
func (m *Map) AddWall(w Wall) { m.walls = append(m.walls, w) }
