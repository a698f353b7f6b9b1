package core

// servas is a SERVAS-style treeless authenticryption backend (Steinegger
// et al., see PAPERS.md): memory is encrypted with an authenticated cipher
// whose per-block tag doubles as the integrity MAC, keyed by a per-enclave
// tweak. Freshness comes from the cipher construction instead of a counter
// tree, so there is no integrity-tree metadata and no tree-walk traffic —
// a radically different profile from the paper's families. The cache
// budget split is equally different: with no counters to cache, the whole
// 16 KB/core budget backs the MAC cache. Tags provide detection but there
// is no parity, so faults are detected (DUE) and never corrected.
func init() {
	Register(backendFunc{
		name: "servas",
		desc: "SERVAS-style treeless authenticryption: per-block MAC-with-tweak, no integrity tree",
		build: func(cores int) (Scheme, error) {
			return Scheme{
				Name: "servas", Secure: true, NoTree: true,
				MACCacheKB: scaled(64, cores),
			}, nil
		},
	})
}
