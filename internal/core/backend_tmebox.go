package core

// tmebox is a TME-Box-style multi-key encryption backend (Unterguggenberger
// et al., see PAPERS.md): in-process isolation comes from assigning each
// sandbox its own transparent-memory-encryption key, not from a tree or
// MACs. What it stresses is the key path — a key table in DRAM fronted by
// an on-chip key cache (the MetaCacheKB budget) — and the pressure scales
// with the domain count, which is the family's scheme parameter
// (Scheme.KeyDomains). Two registered configurations bracket the regime:
// `tmebox` at 4096 domains sizes the key table at the key cache's capacity
// so real workloads thrash it, and `tmebox256` is the small-population
// case whose keys fit on chip after cold misses. Encryption-only schemes
// carry NoMAC: they cannot detect faults, matching plain TME hardware.
func init() {
	Register(backendFunc{
		name: "tmebox",
		desc: "TME-Box multi-key encryption, 4096 in-process key domains stressing the key path",
		build: func(cores int) (Scheme, error) {
			return Scheme{
				Name: "tmebox", Secure: true, NoTree: true, NoMAC: true,
				KeyDomains:  4096,
				MetaCacheKB: scaled(64, cores),
			}, nil
		},
	})
	Register(backendFunc{
		name: "tmebox256",
		desc: "TME-Box with 256 key domains: key table fits the on-chip key cache",
		build: func(cores int) (Scheme, error) {
			return Scheme{
				Name: "tmebox256", Secure: true, NoTree: true, NoMAC: true,
				KeyDomains:  256,
				MetaCacheKB: scaled(64, cores),
			}, nil
		},
	})
}
