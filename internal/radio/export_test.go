package radio

// LinkFallbacks reports how many link decisions so far needed the
// exact radii.
func LinkFallbacks() uint64 { return linkFallbacks.Load() }

// SINRFallbacks reports how many SINR decisions so far fell back from
// the enclosure to the exact interference sum.
func SINRFallbacks() uint64 { return sinrFallbacks.Load() }

// RxFallbacks reports how many SINR decisions so far needed the exact
// receive power.
func RxFallbacks() uint64 { return rxFallbacks.Load() }
