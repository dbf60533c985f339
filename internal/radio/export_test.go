package radio

// LinkFallbacks reports how many link decisions so far needed the
// exact radii.
func LinkFallbacks() uint64 { return linkFallbacks.Load() }
