package mpi

import (
	"fmt"
	"testing"
)

func TestSendRecvBasic(t *testing.T) {
	w := NewWorld(2)
	defer w.Close()
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 7, []byte("hello"))
		}
		data, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if string(data) != "hello" {
			return fmt.Errorf("got %q", data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvMatchesTagAndSource(t *testing.T) {
	w := NewWorld(3)
	defer w.Close()
	err := w.Run(func(c *Comm) error {
		switch c.Rank() {
		case 0:
			if err := c.Send(2, 1, []byte("a")); err != nil {
				return err
			}
			return c.Send(2, 2, []byte("b"))
		case 1:
			return c.Send(2, 1, []byte("c"))
		default:
			// Receive out of arrival order: tag 2 from 0 first.
			b, err := c.Recv(0, 2)
			if err != nil {
				return err
			}
			a, err := c.Recv(0, 1)
			if err != nil {
				return err
			}
			cc, err := c.Recv(1, 1)
			if err != nil {
				return err
			}
			if string(a) != "a" || string(b) != "b" || string(cc) != "c" {
				return fmt.Errorf("matching broken: %q %q %q", a, b, cc)
			}
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvOrderPerSender(t *testing.T) {
	w := NewWorld(2)
	defer w.Close()
	err := w.Run(func(c *Comm) error {
		const n = 100
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := c.SendValue(1, 5, i); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			var v int
			if err := c.RecvValue(0, 5, &v); err != nil {
				return err
			}
			if v != i {
				return fmt.Errorf("out of order: got %d want %d", v, i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcast(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		for root := 0; root < n; root++ {
			w := NewWorld(n)
			err := w.Run(func(c *Comm) error {
				var data []byte
				if c.Rank() == root {
					data = []byte(fmt.Sprintf("payload-from-%d", root))
				}
				got, err := c.Bcast(root, data)
				if err != nil {
					return err
				}
				want := fmt.Sprintf("payload-from-%d", root)
				if string(got) != want {
					return fmt.Errorf("rank %d got %q, want %q", c.Rank(), got, want)
				}
				return nil
			})
			w.Close()
			if err != nil {
				t.Fatalf("n=%d root=%d: %v", n, root, err)
			}
		}
	}
}

func TestAllreduce(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		w := NewWorld(n)
		err := w.Run(func(c *Comm) error {
			sum, err := c.AllreduceFloat64(float64(c.Rank()+1), "sum")
			if err != nil {
				return err
			}
			want := float64(n*(n+1)) / 2
			if sum != want {
				return fmt.Errorf("sum = %v, want %v", sum, want)
			}
			mx, err := c.AllreduceFloat64(float64(c.Rank()), "max")
			if err != nil {
				return err
			}
			if mx != float64(n-1) {
				return fmt.Errorf("max = %v", mx)
			}
			mn, err := c.AllreduceFloat64(float64(c.Rank()+10), "min")
			if err != nil {
				return err
			}
			if mn != 10 {
				return fmt.Errorf("min = %v", mn)
			}
			return nil
		})
		w.Close()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestGather(t *testing.T) {
	w := NewWorld(4)
	defer w.Close()
	err := w.Run(func(c *Comm) error {
		got, err := c.Gather(2, []byte{byte(c.Rank() * 10)})
		if err != nil {
			return err
		}
		if c.Rank() != 2 {
			if got != nil {
				return fmt.Errorf("non-root received data")
			}
			return nil
		}
		for r := 0; r < 4; r++ {
			if got[r][0] != byte(r*10) {
				return fmt.Errorf("gather[%d] = %v", r, got[r])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
