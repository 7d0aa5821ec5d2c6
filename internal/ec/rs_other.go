//go:build !amd64

package ec

func initKernel() {}

// mulSliceXorVec has no vector kernel off amd64: the word loop folds
// everything.
func mulSliceXorVec(coef byte, in, out []byte) int { return 0 }
