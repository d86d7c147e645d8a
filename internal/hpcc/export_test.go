package hpcc

// HaloZeros exposes the shared halo message body to the external tests.
func HaloZeros() []byte { return haloZeros[:] }
