// Platoon: the paper's future-work scenario — a platoon of robotic
// vehicles receives the infrastructure's emergency warning, either
// directly over ITS-G5 or through a 5G-capable leader that forwards
// it over 802.11p (the multi-technology arrangement of §V).
package main

import (
	"fmt"
	"log"

	"itsbed"
)

func main() {
	const members = 4

	fmt.Printf("Platoon emergency braking (%d members)\n\n", members)

	// A single run, member by member.
	run, err := itsbed.Platoon(21, members, itsbed.PlatoonITSG5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(run.Format())
	fmt.Println()

	// Averaged study across seeds for both delivery modes.
	study1, err := itsbed.PlatoonStudy(33, 10, members, itsbed.PlatoonITSG5, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(study1.Format())
	study2, err := itsbed.PlatoonStudy(33, 10, members, itsbed.PlatoonHybrid, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(study2.Format())
	fmt.Println()
	fmt.Println("The poll-loop quantisation on each vehicle's OBU interface means the")
	fmt.Println("extra 5G hop is often absorbed; averaging across runs reveals it.")
}
