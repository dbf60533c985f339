// Intersection: the paper's motivating blind-corner use case (Fig. 1).
// A vehicle approaches an intersection without line of sight to the
// hazard; the run is executed twice — once network-aided (the
// road-side infrastructure issues a DENM) and once with onboard-only
// sensing limited by the blind corner — and the stopping outcomes are
// compared.
package main

import (
	"fmt"
	"log"

	"itsbed"
)

func main() {
	const runs = 20
	res, err := itsbed.BlindCorner(11, runs, 0)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Blind-corner intersection: network-aided vs onboard-only")
	fmt.Printf("(%d runs per arm; hazard at the camera position; LoS opens late)\n\n", runs)
	fmt.Print(res.Format())
	fmt.Println()

	v2x, onboard := res.V2X, res.Onboard
	fmt.Printf("Margin gained by the infrastructure warning: %.2f m on average\n",
		v2x.Summary.Mean-onboard.Summary.Mean)
	fmt.Printf("Collision rate: %.0f%% network-aided vs %.0f%% onboard-only\n",
		100*float64(v2x.Collisions)/float64(runs),
		100*float64(onboard.Collisions)/float64(runs))
}
