package ldpc

import (
	"math"
	"testing"
)

func TestNoiseSigma(t *testing.T) {
	// At rate 1/2 and Eb/N0 = 0 dB: sigma = 1.
	if s := NoiseSigma(0, 0.5); math.Abs(s-1) > 1e-12 {
		t.Errorf("sigma(0 dB, 1/2) = %g, want 1", s)
	}
	// Higher Eb/N0, less noise; higher rate, less noise energy per bit.
	if NoiseSigma(3, 0.5) >= NoiseSigma(0, 0.5) {
		t.Error("sigma not decreasing in Eb/N0")
	}
	if NoiseSigma(0, 0.8) >= NoiseSigma(0, 0.5) {
		t.Error("sigma not decreasing in rate")
	}
}

func TestNoiseSigmaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rate 0 did not panic")
		}
	}()
	NoiseSigma(0, 0)
}

func TestSimulateBERDecreasingInEbN0(t *testing.T) {
	code := Lift(Regular48(), 40, 3)
	ber := func(db float64) float64 {
		r := SimulateBER(BERParams{
			Code: code, Alg: MinSum, MaxIter: 40,
			EbN0DB: db, TargetBitErrors: 200, MaxCodewords: 400, Seed: 4,
		})
		return r.BER
	}
	b1, b2, b3 := ber(0), ber(2), ber(4)
	if !(b1 > b2 && b2 > b3) {
		t.Errorf("BER not decreasing: %g, %g, %g at 0/2/4 dB", b1, b2, b3)
	}
	if b1 < 1e-3 {
		t.Errorf("BER at 0 dB = %g, implausibly low", b1)
	}
}

func TestSimulateBERDeterministicAcrossWorkerCounts(t *testing.T) {
	code := Lift(Regular48(), 25, 2)
	run := func(workers int) BERResult {
		return SimulateBER(BERParams{
			Code: code, Alg: MinSum, MaxIter: 20, EbN0DB: 2,
			TargetBitErrors: 1 << 30, // disable early stop so batching cannot differ
			MaxCodewords:    64, Seed: 11, Workers: workers,
		})
	}
	a, b := run(1), run(4)
	if a.BitErrors != b.BitErrors || a.Bits != b.Bits {
		t.Errorf("worker count changed the result: %+v vs %+v", a, b)
	}
}

func TestSimulateBERWindowPath(t *testing.T) {
	code := LiftConvolutional(PaperSpreading(), 12, 15, 2)
	r := SimulateBER(BERParams{
		Code: code, Alg: MinSum, MaxIter: 20, Window: 4,
		EbN0DB: 4, TargetBitErrors: 20, MaxCodewords: 60, Seed: 5,
	})
	if r.Codewords == 0 || r.Bits == 0 {
		t.Fatalf("window BER simulated nothing: %+v", r)
	}
	if r.BER > 0.05 {
		t.Errorf("window BER at 4 dB = %g, implausibly high", r.BER)
	}
}

// TestAdaptiveCleanStartSpendsBudget pins the adaptive rule's handling
// of an error-free first stretch. At the sweep's smoke operating point
// the (25, 6) code's frame-error rate is a few percent, and under seed
// 86 its first 64 frames are clean; the run must go on and find the
// errors instead of stopping there with BER 0.
func TestAdaptiveCleanStartSpendsBudget(t *testing.T) {
	code := LiftConvolutional(PaperSpreading(), 16, 25, 3)
	p := BERParams{
		Code: code, Alg: SumProduct, MaxIter: 20, Window: 6, Rate: 0.5,
		EbN0DB: 3, TargetBitErrors: 1 << 30, TargetFrameErrors: 1 << 30,
		MaxCodewords: 64, Seed: 86, Workers: 1,
	}
	if r := SimulateBER(p); r.FrameErrors != 0 {
		t.Fatalf("seed 86 no longer starts clean (%+v); pick a seed whose first 64 frames are error-free", r)
	}
	p.MaxCodewords, p.RelCI = 256, 0.3
	r := SimulateBER(p)
	if r.Codewords != p.MaxCodewords || r.FrameErrors == 0 || r.BER == 0 {
		t.Errorf("adaptive run after a clean start = %+v, want all %d codewords and a nonzero BER", r, p.MaxCodewords)
	}
}

func TestRequiredEbN0FindsThreshold(t *testing.T) {
	code := Lift(Regular48(), 40, 3)
	req := RequiredEbN0(SearchParams{
		BERParams: BERParams{
			Code: code, Alg: SumProduct, MaxIter: 40,
			TargetBitErrors: 30, MaxCodewords: 1500, Seed: 6,
		},
		TargetBER: 1e-3,
		LoDB:      0.5, HiDB: 6, TolDB: 0.25,
	})
	if math.IsNaN(req) {
		t.Fatal("search failed to bracket the target")
	}
	// A short (4,8) code at BER 1e-3 needs roughly 2-4.5 dB.
	if req < 1 || req > 5 {
		t.Errorf("required Eb/N0 = %.2f dB, want within [1, 5]", req)
	}
	// Verify: at the returned point the BER meets the target (within
	// Monte-Carlo slack).
	r := SimulateBER(BERParams{
		Code: code, Alg: SumProduct, MaxIter: 40, EbN0DB: req + 0.3,
		TargetBitErrors: 30, MaxCodewords: 1500, Seed: 60,
	})
	if r.BER > 3e-3 {
		t.Errorf("BER at required+0.3dB = %g, want near 1e-3", r.BER)
	}
}

func TestRequiredEbN0UnreachableReturnsNaN(t *testing.T) {
	code := Lift(Regular48(), 25, 2)
	req := RequiredEbN0(SearchParams{
		BERParams: BERParams{
			Code: code, Alg: MinSum, MaxIter: 5,
			TargetBitErrors: 10, MaxCodewords: 30, Seed: 7,
		},
		TargetBER: 1e-12, // unreachable with 30 codewords at 1.5 dB max
		LoDB:      0.5, HiDB: 1.5, TolDB: 0.25,
	})
	if !math.IsNaN(req) {
		t.Errorf("unreachable target returned %.2f, want NaN", req)
	}
}

func TestRequiredEbN0PanicsOnBadTarget(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("target 0 did not panic")
		}
	}()
	RequiredEbN0(SearchParams{BERParams: BERParams{Code: Lift(Regular48(), 10, 1)}, TargetBER: 0})
}

func TestFig10HeadlineCCBeatsBCAtEqualQuality(t *testing.T) {
	// The paper's central coding result: at the same Eb/N0, the LDPC-CC
	// with window decoding reaches the target BER at roughly HALF the
	// structural latency of the block code it is derived from.
	// Smoke-scale version: target BER 1e-3.
	if testing.Short() {
		t.Skip("Monte-Carlo comparison skipped in -short mode")
	}
	const targetBER = 1e-3

	// Block code with latency TB = N_B (rate 1/2, nv = 2).
	bc := Lift(Regular48(), 200, 3) // TB = 200 info bits
	bcReq := RequiredEbN0(SearchParams{
		BERParams: BERParams{Code: bc, Alg: SumProduct, MaxIter: 50,
			TargetBitErrors: 50, MaxCodewords: 4000, Seed: 8},
		TargetBER: targetBER, LoDB: 1, HiDB: 7, TolDB: 0.15,
	})

	// LDPC-CC with N=40, W=5: TWD = W*N = 200 info bits — the same
	// latency budget. (N=25 with W=8 saturates at this quality — the
	// paper's own remark that beyond some W the lifting factor must grow;
	// N=40 is the paper's mid-size code.)
	cc := LiftConvolutional(PaperSpreading(), 50, 40, 3)
	ccReq := RequiredEbN0(SearchParams{
		BERParams: BERParams{Code: cc, Alg: SumProduct, MaxIter: 50,
			Window: 5, Rate: 0.5,
			TargetBitErrors: 50, MaxCodewords: 4000, Seed: 9},
		TargetBER: targetBER, LoDB: 1, HiDB: 7, TolDB: 0.15,
	})

	if math.IsNaN(bcReq) || math.IsNaN(ccReq) {
		t.Fatalf("searches failed: BC %.2f, CC %.2f", bcReq, ccReq)
	}
	if ccReq >= bcReq {
		t.Errorf("LDPC-CC requires %.2f dB, block code %.2f dB — CC should win at equal latency",
			ccReq, bcReq)
	}
}
