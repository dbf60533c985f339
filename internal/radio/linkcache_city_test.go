package radio_test

import (
	"sync"
	"testing"
	"time"

	"itsbed/internal/experiments"
	"itsbed/internal/radio"
)

// citySecond is one simulated second of a 1000-vehicle city at seed
// 13000, with the fallbacks its link, receive-power and SINR decisions
// took.
var citySecond struct {
	once                                      sync.Once
	row                                       experiments.CityRow
	err                                       error
	linkFallbacks, rxFallbacks, sinrFallbacks uint64
}

// cityFallbacks runs citySecond once per test binary and returns the
// fallback count that count selects over the receptions the medium
// evaluated.
func cityFallbacks(t *testing.T, count func() uint64) (fallbacks, evaluated uint64) {
	t.Helper()
	if testing.Short() {
		t.Skip("1000-vehicle city")
	}
	c := &citySecond
	c.once.Do(func() {
		link, rx, sinr := radio.LinkFallbacks(), radio.RxFallbacks(), radio.SINRFallbacks()
		var rows []experiments.CityRow
		rows, c.err = experiments.CitySweep(experiments.CityOptions{
			Stations: []int{1000}, Duration: time.Second, Workers: 1, BaseSeed: 13000,
		})
		c.linkFallbacks, c.sinrFallbacks = radio.LinkFallbacks()-link, radio.SINRFallbacks()-sinr
		c.rxFallbacks = radio.RxFallbacks() - rx
		if c.err == nil {
			c.row = rows[0]
		}
	})
	if c.err != nil {
		t.Fatal(c.err)
	}
	r := c.row
	evaluated = r.FramesDelivered + r.FramesLost - r.FramesCulled
	if evaluated == 0 {
		t.Fatal("the city evaluated no reception")
	}
	t.Logf("%d frames sent, %d evaluated receptions", r.FramesSent, evaluated)
	return count(), evaluated
}

// TestCityLinkFallbacks counts the link decisions of a 1000-vehicle
// city second that the float32 link cache left to the exact radii.
// The band is about 2⁻²¹ of a radius wide, so they must stay a tiny
// share of the receptions the medium evaluated.
func TestCityLinkFallbacks(t *testing.T) {
	fallbacks, evaluated := cityFallbacks(t, func() uint64 { return citySecond.linkFallbacks })
	t.Logf("%d link fallbacks over %d evaluated receptions", fallbacks, evaluated)
	if fallbacks*10000 > evaluated {
		t.Fatalf("%d fallbacks over %d evaluated receptions: more than 1 in 10⁴", fallbacks, evaluated)
	}
}

// TestCityRxFallbacks counts the SINR decisions of the same city
// second that the receive-power bounds left to the exact power: draws
// within the bounds' band of the limit, or above enclosedMaxU. Each
// is one exact rxPowerDBmAt and decideSINR, so they must stay under 1
// in 10³ of the receptions the medium evaluated.
func TestCityRxFallbacks(t *testing.T) {
	fallbacks, evaluated := cityFallbacks(t, func() uint64 { return citySecond.rxFallbacks })
	t.Logf("%d receive-power fallbacks over %d evaluated receptions", fallbacks, evaluated)
	if fallbacks*1000 > evaluated {
		t.Fatalf("%d fallbacks over %d evaluated receptions: more than 1 in 10³", fallbacks, evaluated)
	}
}

// TestCitySINRFallbacks counts the SINR decisions of the same city
// second that, having fallen back to the exact receive power, the
// enclosure left to the exact interference sum as well: draws within
// its 1e-10 pad of the limit, or above enclosedMaxU, so they must stay
// a tiny share of the receptions too.
func TestCitySINRFallbacks(t *testing.T) {
	fallbacks, evaluated := cityFallbacks(t, func() uint64 { return citySecond.sinrFallbacks })
	t.Logf("%d SINR fallbacks over %d evaluated receptions", fallbacks, evaluated)
	if fallbacks*10000 > evaluated {
		t.Fatalf("%d fallbacks over %d evaluated receptions: more than 1 in 10⁴", fallbacks, evaluated)
	}
}
