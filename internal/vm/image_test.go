package vm

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// assertDefaultCosts checks that every instruction and block cost of an
// image follows DefaultAVRTimeModel: no machine wrote into it.
func assertDefaultCosts(t *testing.T, img *Image) {
	t.Helper()
	for _, ch := range img.compiled {
		for i, in := range ch.ins {
			if want := DefaultAVRTimeModel.InstructionCost(int(in.pushes), int(in.pops)); in.cost != want {
				t.Fatalf("image handler %s instruction %d costs %v, want %v", ch.name, i, in.cost, want)
			}
		}
		for i, b := range ch.blocks {
			var want time.Duration
			for k := b.start; k <= b.end; k++ {
				want += ch.ins[k].cost
			}
			if b.cost != want {
				t.Fatalf("image handler %s block %d costs %v, want %v", ch.name, i, b.cost, want)
			}
		}
	}
}

// TestImageMachinesKeepSeparateStatics runs two machines of one image and
// checks each keeps its own driver state.
func TestImageMachinesKeepSeparateStatics(t *testing.T) {
	img := mustImage(t, compile(t, arithDriver, 1))
	a, b := img.Instantiate(), img.Instantiate()
	if a.Image() != img || b.Image() != img {
		t.Fatal("machines do not report their image")
	}
	if _, err := a.Run("compute", []int32{7, 3}); err != nil {
		t.Fatal(err)
	}
	if got := a.Static(0)[0]; got != 19 {
		t.Fatalf("a.acc = %d, want 19", got)
	}
	if got := b.Static(0)[0]; got != 0 {
		t.Fatalf("b.acc = %d after a ran, want 0", got)
	}
	if _, err := b.Run("compute", []int32{10, 5}); err != nil {
		t.Fatal(err)
	}
	if a.Static(0)[0] != 19 || b.Static(0)[0] != 28 {
		t.Fatalf("acc a=%d b=%d, want 19 and 28", a.Static(0)[0], b.Static(0)[0])
	}
}

// TestImageConcurrentMachines loads one driver from separate goroutines
// through one table and runs a machine of the image in each. Every
// goroutine must get the same image and every run the same transcript;
// under the race detector, a run that wrote into the shared image is also a
// data race.
func TestImageConcurrentMachines(t *testing.T) {
	const workers, iters = 8, 200
	prog := compile(t, arithDriver, 1)
	ref, err := NewMachine(prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ref.Run("compute", []int32{10, 3})
	if err != nil {
		t.Fatal(err)
	}
	want := res.EmulatedTime

	code, err := prog.Encode()
	if err != nil {
		t.Fatal(err)
	}
	tab := NewImages()
	images := make([]*Image, workers)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			img, err := tab.Load(code)
			if err != nil {
				errs <- err
				return
			}
			images[w] = img
			m := img.Instantiate()
			for i := 0; i < iters; i++ {
				res, err := m.Run("compute", []int32{10, 3})
				if err != nil {
					errs <- err
					return
				}
				if res.EmulatedTime != want {
					errs <- fmt.Errorf("worker %d run %d: %v, want %v", w, i, res.EmulatedTime, want)
					return
				}
				if got := m.Static(0)[0]; got != 24 {
					errs <- fmt.Errorf("worker %d run %d: acc %d, want 24", w, i, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if t.Failed() {
		return
	}
	for w, img := range images {
		if img != images[0] {
			t.Fatalf("worker %d loaded its own image", w)
		}
	}
	assertDefaultCosts(t, images[0])
}

// TestImagesLoad checks the table's content addressing: the same bytes give
// the same image, different bytes a different one, and bytes that do not
// decode or verify are rejected and not retained.
func TestImagesLoad(t *testing.T) {
	progs := embeddedPrograms(t)
	a, err := progs["TMP36"].Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := progs["PCF8574 Relay Bank"].Encode()
	if err != nil {
		t.Fatal(err)
	}
	tab := NewImages()
	ia, err := tab.Load(a)
	if err != nil {
		t.Fatal(err)
	}
	again, err := tab.Load(append([]byte(nil), a...))
	if err != nil {
		t.Fatal(err)
	}
	if again != ia {
		t.Fatal("identical driver bytes loaded two images")
	}
	ib, err := tab.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	if ib == ia {
		t.Fatal("different driver bytes share an image")
	}
	if tab.Len() != 2 {
		t.Fatalf("table holds %d images, want 2", tab.Len())
	}
	if _, err := tab.Load(a[:len(a)-1]); err == nil {
		t.Fatal("truncated driver loaded")
	}
	if tab.Len() != 2 {
		t.Fatalf("a rejected driver was retained: %d images", tab.Len())
	}

	// Code hands out copies: the table's key bytes cannot be changed.
	code := ia.Code()
	if !bytes.Equal(code, a) {
		t.Fatal("Code differs from the loaded bytes")
	}
	code[len(code)-1] ^= 0xff
	if !bytes.Equal(ia.Code(), a) {
		t.Fatal("mutating Code's result changed the image")
	}
	if got, err := tab.Load(a); err != nil || got != ia {
		t.Fatal("the image is no longer found under its bytes")
	}
}
