package mac

import "testing"

// TestExpandKeyFIPS197 checks the AES-NI key schedule against FIPS-197
// Appendix A.1 (first and last round keys) and the S-box against
// entries of the standard's Fig. 7.
func TestExpandKeyFIPS197(t *testing.T) {
	key := [16]byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}
	rk := expandKey(key)
	if [16]byte(rk[:16]) != key {
		t.Errorf("round key 0 = %x, want the key", rk[:16])
	}
	last := [16]byte{0xd0, 0x14, 0xf9, 0xa8, 0xc9, 0xee, 0x25, 0x89, 0xe1, 0x3f, 0x0c, 0xc8, 0xb6, 0x63, 0x0c, 0xa6}
	if [16]byte(rk[160:]) != last {
		t.Errorf("round key 10 = %x, want %x", rk[160:], last)
	}
	for in, want := range map[byte]byte{0x00: 0x63, 0x01: 0x7c, 0x53: 0xed, 0xcf: 0x8a, 0xff: 0x16} {
		if got := sbox(in); got != want {
			t.Errorf("sbox(%#x) = %#x, want %#x", in, got, want)
		}
	}
}

// TestKernelSelection pins that the kernels run where the CPU has
// them: NewAES returns the AES-NI Keyed exactly when useAESNI.
func TestKernelSelection(t *testing.T) {
	_, isNI := NewAES([16]byte{}).(*aesNI)
	if isNI != useAESNI {
		t.Errorf("NewAES returned the kernel: %v; useAESNI: %v", isNI, useAESNI)
	}
	if !useAESNI {
		t.Log("CPU has no AES-NI: the kernel is compiled but not run")
	}
	if !useSHANI {
		t.Log("CPU has no SHA extensions: SHA56 runs crypto/sha1")
	}
}
