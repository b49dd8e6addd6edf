type Point struct {
	x int
	y float
	name string
}

type Node struct {
	val  int
	next *Node
}

func pair(n int) (int, string) {
	return n * 2, itoa(n)
}

func worker(ch []int, i int) {
	ch[i] = i
}

func guard() {
	msg := recover()
	if msg != "" {
		println("recovered:", msg)
	}
}

func risky(n int) int {
	defer guard()
	if n == 0 {
		panic("zero \"input\"\n")
	}
	return 100 / n
}

func nothing() {
	return
}

func floats() float {
	a := 3.0
	b := 0.1
	c := 0.0000001
	d := 123456789.5
	e := -2.5
	f := 100000000.0
	g := 0.000123456789
	return a + b*c - d/e + f + g
}

func strings(s string) string {
	t := "tab\there\\ \"q\" cr\r nul\000 é"
	u := substr(s, 1, 3) + t
	v := u[1:]
	w := u[:2]
	x := u[1:3]
	return v + w + x
}

func bits(a int, b int) int {
	c := (a & b) | (a ^ b)
	d := (c << 2) >> 1
	e := a % 7
	if a == b || a != c && !(b < d) {
		return -e
	} else if a <= b {
		return d
	} else if a >= c {
		return c
	} else {
		return e
	}
}

func slices(n int) int {
	xs := make([]int, n)
	ys := make([]int, n, n*2)
	zs := []int{1, 2, 3}
	zs = append(zs, 4, 5)
	k := copy(ys, xs)
	ws := xs[:]
	vs := ys[1:n]
	xs[0] = len(zs) + cap(ys) + k + len(ws) + len(vs)
	total := 0
	for i := 0; i < len(xs); i = i + 1 {
		if i == 3 {
			continue
		}
		if i > 10 {
			break
		}
		total = total + xs[i]
	}
	for i := range zs {
		total = total + zs[i]
	}
	for total > 1000 {
		total = total / 2
	}
	return total + rand(10)
}

func maps(n int) int {
	m := make(map[string]int)
	m["a"] = n
	m["b"] = n + 1
	v, ok := m["a"]
	w := m["b"]
	delete(m, "a")
	count := 0
	for k := range m {
		count = count + m[k]
	}
	if ok {
		count = count + v
	}
	var flag bool
	flag = true
	if flag {
		count = count + w
	}
	return count
}

func pointers(n int) int {
	p := new(int)
	*p = n
	q := &Point{n, 1.5, "pt"}
	q.x = q.x + 1
	r := Point{x: 2, y: 0.25, name: "r"}
	r.y = q.y
	s := &r
	t := &r.x
	*t = *p + s.x
	head := &Node{1, nil}
	head.next = &Node{2, nil}
	xs := make([]int, 4)
	e := &xs[1]
	*e = 7
	return head.next.val + *t + xs[1]
}

func multi() int {
	var a int
	var b string
	a, b = pair(3)
	c, d := pair(4)
	x, y := 1, 2
	x, y = y, x
	{
		z := a + c
		println(z, b, d, x, y)
	}
	return a
}

func local(n int) int {
	m := make(map[int]int)
	p := new(int)
	for i := 0; i < n; i = i + 1 {
		m = make(map[int]int)
		m[i] = i
		p = new(int)
		*p = i
	}
	r := m[1] + *p
	return r
}

func main() {
	ch := make([]int, 4)
	go worker(ch, 1)
	println(risky(5), risky(0))
	nothing()
	println(floats(), strings("hello"), bits(6, 3), slices(8), maps(2), pointers(1), multi(), local(3), true, false)
}
