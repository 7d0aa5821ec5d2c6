package ec

// splitTables[coef] holds coef's two 16-entry product tables: bytes
// 0–15 are coef·x and bytes 16–31 coef·(x<<4) for each nibble x, so
// coef·b = splitTables[coef][b&15] ^ splitTables[coef][16+b>>4]. 8 KiB
// for all 256 coefficients, filled by initKernel from gfMulTable.
var splitTables [fieldSize][32]byte

// hasAVX2 is read once, by initKernel.
var hasAVX2 bool

//go:noescape
func mulAVX2(tables *[32]byte, in, out []byte)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

// initKernel runs at the end of the package's init, once gfMulTable is
// filled: the order of init functions across files is the order of
// their file names, which this does not rely on.
func initKernel() {
	for c := range splitTables {
		for x := 0; x < 16; x++ {
			splitTables[c][x] = gfMulTable[c][x]
			splitTables[c][16+x] = gfMulTable[c][x<<4]
		}
	}
	hasAVX2 = cpuHasAVX2()
}

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches.
func cpuHasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0 := xgetbv(); xcr0&6 != 6 { // XMM and YMM state
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// mulSliceXorVec folds coef·in into out for the leading whole 32-byte
// blocks of in and returns how many bytes it folded: 0 without AVX2.
func mulSliceXorVec(coef byte, in, out []byte) int {
	n := len(in) &^ 31
	if !hasAVX2 || n == 0 {
		return 0
	}
	mulAVX2(&splitTables[coef], in[:n], out[:n])
	return n
}
