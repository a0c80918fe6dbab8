package core

import (
	"math"
	"strings"
	"testing"

	"cubefit/internal/packing"
	"cubefit/internal/rng"
)

func TestAlphaK(t *testing.T) {
	tests := []struct {
		k    int
		want int
	}{
		{k: 2, want: 0},
		{k: 3, want: 1}, // 1+1=2 < 3
		{k: 5, want: 1},
		{k: 6, want: 1}, // 2²+2=6 is not < 6
		{k: 7, want: 2},
		{k: 10, want: 2},
		{k: 12, want: 2}, // 3²+3=12 is not < 12
		{k: 13, want: 3},
		{k: 20, want: 3},
		{k: 21, want: 4},
	}
	for _, tt := range tests {
		if got := AlphaK(tt.k); got != tt.want {
			t.Errorf("AlphaK(%d) = %d, want %d", tt.k, got, tt.want)
		}
	}
}

func TestClassOf(t *testing.T) {
	cfg := Config{Gamma: 2, K: 10}
	tests := []struct {
		size float64
		want int
	}{
		// Class τ covers (1/(τ+2), 1/(τ+1)] for γ=2.
		{size: 0.5, want: 1},  // (1/3, 1/2]
		{size: 0.34, want: 1}, //
		{size: 1.0 / 3, want: 2},
		{size: 0.3, want: 2},       // (1/4, 1/3]
		{size: 0.25, want: 3},      // boundary of (1/5, 1/4]
		{size: 0.2, want: 4},       // boundary of (1/6, 1/5]
		{size: 0.11, want: 8},      // (1/10, 1/9]
		{size: 0.1, want: 9},       // boundary of (1/11, 1/10]
		{size: 0.095, want: 9},     // (1/11, 1/10]
		{size: 1.0 / 11, want: 10}, // at most 1/(K+γ-1)=1/11: tiny
		{size: 0.05, want: 10},
		{size: 1e-6, want: 10},
	}
	for _, tt := range tests {
		if got := cfg.ClassOf(tt.size); got != tt.want {
			t.Errorf("ClassOf(%v) = %d, want %d", tt.size, got, tt.want)
		}
	}
}

func TestClassOfGamma3(t *testing.T) {
	cfg := Config{Gamma: 3, K: 5}
	tests := []struct {
		size float64
		want int
	}{
		{size: 1.0 / 3, want: 1}, // (1/4, 1/3]
		{size: 0.3, want: 1},
		{size: 0.25, want: 2}, // (1/5, 1/4]
		{size: 0.2, want: 3},  // (1/6, 1/5]
		{size: 1.0 / 6, want: 4},
		{size: 1.0 / 7, want: 5}, // tiny: (0, 1/(5+3-1)] = (0, 1/7]
		{size: 0.01, want: 5},
	}
	for _, tt := range tests {
		if got := cfg.ClassOf(tt.size); got != tt.want {
			t.Errorf("ClassOf(%v) = %d, want %d", tt.size, got, tt.want)
		}
	}
}

func TestClassOfIntervalInvariant(t *testing.T) {
	// For any size, the returned class interval must actually contain the
	// size (or be the tiny class K).
	for _, gamma := range []int{1, 2, 3, 4} {
		cfg := Config{Gamma: gamma, K: 10}
		for i := 1; i <= 10000; i++ {
			size := float64(i) / 10000 / float64(gamma) // (0, 1/γ]
			tau := cfg.ClassOf(size)
			if tau < 1 || tau > cfg.K {
				t.Fatalf("γ=%d size=%v: class %d out of range", gamma, size, tau)
			}
			upper := 1 / float64(tau+gamma-1)
			if size > upper+1e-12 {
				t.Fatalf("γ=%d size=%v: class %d upper bound %v exceeded", gamma, size, tau, upper)
			}
			if tau > 1 && tau < cfg.K {
				lower := 1 / float64(tau+gamma)
				if size <= lower-1e-12 {
					t.Fatalf("γ=%d size=%v: below class %d lower bound %v", gamma, size, tau, lower)
				}
			}
		}
	}
}

func TestSlotSize(t *testing.T) {
	cfg := Config{Gamma: 2, K: 10}
	if got := cfg.SlotSize(1); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("SlotSize(1) = %v", got)
	}
	if got := cfg.SlotSize(9); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("SlotSize(9) = %v", got)
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		give   Config
		wantOK bool
	}{
		{name: "default", give: DefaultConfig(), wantOK: true},
		{name: "paper system config", give: Config{Gamma: 3, K: 5, TinyPolicy: TinyClassKMinusOne}, wantOK: true},
		{name: "gamma zero", give: Config{Gamma: 0, K: 10, TinyPolicy: TinyClassKMinusOne}},
		{name: "k too small", give: Config{Gamma: 2, K: 1, TinyPolicy: TinyClassKMinusOne}},
		{name: "negative prune", give: Config{Gamma: 2, K: 10, TinyPolicy: TinyClassKMinusOne, PruneSlack: -1}},
		{name: "bad policy", give: Config{Gamma: 2, K: 10, TinyPolicy: TinyPolicy(9)}},
		{name: "multi-replica ok", give: Config{Gamma: 2, K: 10, TinyPolicy: TinyMultiReplica}, wantOK: true},
		// γ=3, K=5: αK=1, tiny class would be 1−3+1 = −1.
		{name: "multi-replica invalid", give: Config{Gamma: 3, K: 5, TinyPolicy: TinyMultiReplica}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.give.Validate()
			if (err == nil) != tt.wantOK {
				t.Fatalf("Validate(%+v) = %v, want ok=%v", tt.give, err, tt.wantOK)
			}
		})
	}
}

// TestConfigValidateGammaLimit pins the γ range the failover reserve is
// computed exactly for. Beyond γ−1 = digestSize the top-(γ−1) reserve was
// clamped to 8 peers and under-counted, so {γ=10, K=3} broke Theorem 1
// within a few dozen tenants; such configs must be rejected up front.
func TestConfigValidateGammaLimit(t *testing.T) {
	for _, cfg := range []Config{{Gamma: 10, K: 3}, {Gamma: 10, K: 2}, {Gamma: 11, K: 2}} {
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), "> 9") {
			t.Errorf("Validate(γ=%d, K=%d) = %v, want an error naming the limit 9", cfg.Gamma, cfg.K, err)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("New(γ=%d, K=%d) accepted the config", cfg.Gamma, cfg.K)
		}
	}
	for gamma := 2; gamma <= 9; gamma++ {
		if err := (Config{Gamma: gamma, K: 2}).Validate(); err != nil {
			t.Errorf("Validate(γ=%d, K=2) = %v, want ok", gamma, err)
		}
	}
	cf, err := New(Config{Gamma: 9, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	for i := 1; i <= 300; i++ {
		if err := cf.Place(packing.Tenant{ID: packing.TenantID(i), Load: 0.05 + 0.5*r.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cf.Placement().ValidateRobustness(); err != nil {
		t.Fatalf("γ=9, K=3 after 300 tenants: %v", err)
	}
}

func TestTinyPolicyString(t *testing.T) {
	if TinyClassKMinusOne.String() != "class-k-minus-one" {
		t.Fatal(TinyClassKMinusOne.String())
	}
	if TinyMultiReplica.String() != "multi-replica" {
		t.Fatal(TinyMultiReplica.String())
	}
	if TinyPolicy(9).String() != "tiny-policy(9)" {
		t.Fatal(TinyPolicy(9).String())
	}
}

func TestIpow(t *testing.T) {
	tests := []struct {
		base, exp int
		want      int
		ok        bool
	}{
		{base: 3, exp: 2, want: 9, ok: true},
		{base: 9, exp: 3, want: 729, ok: true},
		{base: 5, exp: 0, want: 1, ok: true},
		{base: 0, exp: 3, want: 0, ok: true},
		{base: 2, exp: -1, ok: false},
	}
	for _, tt := range tests {
		got, ok := ipow(tt.base, tt.exp)
		if ok != tt.ok || (ok && got != tt.want) {
			t.Errorf("ipow(%d,%d) = %d,%v; want %d,%v", tt.base, tt.exp, got, ok, tt.want, tt.ok)
		}
	}
}
