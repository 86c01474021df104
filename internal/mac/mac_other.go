//go:build !amd64

package mac

// Only amd64 has kernels; elsewhere NewAES and SHA56 run the standard
// library.
const useAESNI, useSHANI = false, false

func newAESNI([16]byte) Keyed { panic("mac: no AES kernel on this platform") }

func sha56NI(uint64, uint64) uint64 { panic("mac: no SHA kernel on this platform") }
