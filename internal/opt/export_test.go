package opt

import "math/rand"

func newTestRNG() *rand.Rand { return newRand(42) }
