// Package pcm converts PCIe traffic into the PCIeRdCur event counts that the
// paper reads from Intel PCM to explain the load-vs-DHA trade-off (Table 1):
// every PCIe read carries a 64-byte cache-line payload, so transferring N
// bytes generates ceil(N/64) PCIeRdCur events.
package pcm

import "math"

// PayloadBytes is the PCIe TLP payload size (one cache line).
const PayloadBytes = 64

// Events converts a byte count into PCIe read-transaction events.
func Events(bytes float64) uint64 {
	if bytes <= 0 {
		return 0
	}
	return uint64(math.Ceil(bytes / PayloadBytes))
}
