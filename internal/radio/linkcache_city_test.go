package radio_test

import (
	"testing"
	"time"

	"itsbed/internal/experiments"
	"itsbed/internal/radio"
)

// TestCityLinkFallbacks counts the link decisions of a 1000-vehicle
// city second that the float32 link cache left to the exact radii.
// The band is about 2⁻²¹ of a radius wide, so they must stay a tiny
// share of the receptions the medium evaluated.
func TestCityLinkFallbacks(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-vehicle city")
	}
	before := radio.LinkFallbacks()
	rows, err := experiments.CitySweep(experiments.CityOptions{
		Stations: []int{1000}, Duration: time.Second, Workers: 1, BaseSeed: 13000,
	})
	if err != nil {
		t.Fatal(err)
	}
	fallbacks := radio.LinkFallbacks() - before
	r := rows[0]
	evaluated := r.FramesDelivered + r.FramesLost - r.FramesCulled
	t.Logf("%d fallbacks over %d evaluated receptions (%d frames sent)", fallbacks, evaluated, r.FramesSent)
	if evaluated == 0 {
		t.Fatal("the city evaluated no reception")
	}
	if fallbacks*10000 > evaluated {
		t.Fatalf("%d fallbacks over %d evaluated receptions: more than 1 in 10⁴", fallbacks, evaluated)
	}
}
