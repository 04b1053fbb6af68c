(* Seven non-transactional kernels mirroring the memory-access character
   of the SPEC JVM98 benchmarks the paper measures in Figures 15-17:

   - compress:  run-length/byte codec over heap buffers held in an object
                (thread-private at runtime -> DEA wins; many consecutive
                accesses to the same array -> aggregation wins)
   - jess:      rule matching over linked fact lists (object-heavy)
   - db:        record vector with lookups, updates and a sort
   - javac:     expression-tree building and constant folding
   - mpegaudio: fixed-point synthesis filter over *static* arrays
                (public data defeats DEA, as in the paper)
   - mtrt:      ray/sphere intersections with short-lived vector objects
                (some provably local -> intraprocedural escape wins ~30%)
   - jack:      token scanner producing token objects

   Each prints a checksum so that tests can verify the computation is
   identical under every barrier configuration. *)

let compress =
  {
    Workload.name = "compress";
    descr = "RLE/byte codec over private buffers";
    kind = Workload.Nontxn;
    params = [ ("size", 2000); ("iters", 3) ];
    source =
      {|
class Buffers {
  int[] input;
  int[] output;
  int[] dict;
}
class Compress {
  static void main() {
    int size = param("size");
    int iters = param("iters");
    int check = 0;
    for (int it = 0; it < iters; it++) {
      check = check + round(it, size);
    }
    print(check);
  }
  static Buffers setup(int size) {
    Buffers b = new Buffers();
    b.input = new int[size];
    b.output = new int[size * 2];
    b.dict = new int[512];
    return b;
  }
  static int round(int seed, int size) {
    Buffers b = setup(size);
    int[] input = b.input;
    for (int i = 0; i < size; i++) {
      input[i] = hash(i / 7 + seed) % 17;
    }
    int[] output = b.output;
    int[] dict = b.dict;
    // per-byte frequency pass (write-heavy, like the codec's model
    // update): read input, read-modify-write the dictionary slot
    for (int i = 0; i < size; i++) {
      int c = input[i];
      dict[c] = dict[c] + 1;
      dict[256 + (c * 7 + i) % 256] = dict[256 + (c * 7 + i) % 256] + c;
    }
    int out = 0;
    int i = 0;
    while (i < size) {
      int c = input[i];
      int run = 1;
      while (i + run < size && input[i + run] == c && run < 255) {
        run = run + 1;
      }
      output[out] = c;
      output[out + 1] = run;
      out = out + 2;
      i = i + run;
    }
    int pos = 0;
    int check = 0;
    for (int j = 0; j < out; j = j + 2) {
      int c = output[j];
      int r = output[j + 1];
      check = check + c * r;
      pos = pos + r;
    }
    assert(pos == size);
    return (check + dict[0] + dict[300]) % 100000;
  }
}
|};
  }

let jess =
  {
    Workload.name = "jess";
    descr = "rule matching over linked fact lists";
    kind = Workload.Nontxn;
    params = [ ("size", 300); ("iters", 4) ];
    source =
      {|
class Fact {
  int kind;
  int a;
  int b;
  Fact next;
}
class Jess {
  static void main() {
    int size = param("size");
    int iters = param("iters");
    int check = 0;
    for (int it = 0; it < iters; it++) {
      check = check + round(it, size);
    }
    print(check);
  }
  static Fact alloc() { return new Fact(); }
  static int round(int seed, int size) {
    Fact head = null;
    for (int i = 0; i < size; i++) {
      Fact f = alloc();
      f.kind = hash(i + seed) % 5;
      f.a = i % 11;
      f.b = (i * 3) % 13;
      f.next = head;
      head = f;
    }
    // rule 1: kind 0 and a == b mod 7 fires and rewrites kind
    int fired = 0;
    Fact p = head;
    while (p != null) {
      if (p.kind == 0 && p.a % 7 == p.b % 7) {
        p.kind = 4;
        fired = fired + 1;
      }
      p = p.next;
    }
    // rule 2: adjacent facts with equal kind merge weights
    p = head;
    int merged = 0;
    while (p != null && p.next != null) {
      if (p.kind == p.next.kind) {
        p.a = p.a + p.next.a;
        merged = merged + 1;
      }
      p = p.next;
    }
    // aggregate
    int sum = 0;
    p = head;
    while (p != null) {
      sum = sum + p.kind * 3 + p.a - p.b;
      p = p.next;
    }
    return (sum + fired * 17 + merged) % 100000;
  }
}
|};
  }

let db =
  {
    Workload.name = "db";
    descr = "record vector: lookups, updates, insertion sort";
    kind = Workload.Nontxn;
    params = [ ("size", 220); ("iters", 3) ];
    source =
      {|
class Record {
  int key;
  int payload;
  int touched;
}
class Database {
  Record[] records;
  int n;
}
class Db {
  static void main() {
    int size = param("size");
    int iters = param("iters");
    int check = 0;
    for (int it = 0; it < iters; it++) {
      check = check + round(it, size);
    }
    print(check);
  }
  static Database setup(int seed, int size) {
    Database d = new Database();
    d.records = new Record[size];
    d.n = size;
    for (int i = 0; i < size; i++) {
      Record r = new Record();
      r.key = hash(i * 13 + seed) % 10000;
      r.payload = i;
      d.records[i] = r;
    }
    return d;
  }
  static int round(int seed, int size) {
    Database d = setup(seed, size);
    Record[] rs = d.records;
    // insertion sort by key
    for (int i = 1; i < size; i++) {
      Record r = rs[i];
      int j = i - 1;
      while (j >= 0 && rs[j].key > r.key) {
        rs[j + 1] = rs[j];
        j = j - 1;
      }
      rs[j + 1] = r;
    }
    // lookups (binary search) + updates
    int found = 0;
    for (int q = 0; q < size; q++) {
      int target = hash(q + seed * 7) % 10000;
      int lo = 0;
      int hi = size - 1;
      while (lo < hi) {
        int mid = (lo + hi) / 2;
        if (rs[mid].key < target) { lo = mid + 1; } else { hi = mid; }
      }
      if (rs[lo].key == target) {
        found = found + 1;
        rs[lo].touched = rs[lo].touched + 1;
      }
    }
    int sum = 0;
    for (int i = 0; i < size; i++) { sum = sum + rs[i].key % 97 + rs[i].touched; }
    return (sum + found) % 100000;
  }
}
|};
  }

let javac =
  {
    Workload.name = "javac";
    descr = "expression-tree building and constant folding";
    kind = Workload.Nontxn;
    params = [ ("size", 9); ("iters", 40) ];
    source =
      {|
class Node {
  int op;      // 0 = leaf, 1 = add, 2 = mul
  int value;
  Node left;
  Node right;
}
class Javac {
  static void main() {
    int depth = param("size");
    int iters = param("iters");
    int check = 0;
    for (int it = 0; it < iters; it++) {
      Node t = build(depth, it);
      fold(t);
      check = check + t.value % 1000;
    }
    print(check);
  }
  static Node alloc() { return new Node(); }
  static Node build(int depth, int seed) {
    Node n = alloc();
    if (depth == 0) {
      n.op = 0;
      n.value = hash(seed) % 10;
    } else {
      n.op = 1 + hash(seed) % 2;
      n.left = build(depth - 1, seed * 2 + 1);
      n.right = build(depth - 1, seed * 2 + 2);
    }
    return n;
  }
  static void fold(Node n) {
    if (n.op != 0) {
      fold(n.left);
      fold(n.right);
      if (n.op == 1) { n.value = n.left.value + n.right.value; }
      if (n.op == 2) { n.value = (n.left.value * n.right.value) % 9973; }
      n.op = 0;
      n.left = null;
      n.right = null;
    }
  }
}
|};
  }

(* Static arrays initialized by a [clinit]: public data that defeats DEA,
   as in the paper. *)
let mpegaudio =
  {
    Workload.name = "mpegaudio";
    descr = "fixed-point synthesis filter over static arrays";
    kind = Workload.Nontxn;
    params = [ ("size", 32); ("iters", 40) ];
    source =
      {|
class Mpeg {
  static int[] window;
  static int[] coeffs;
  static int[] bands;
  static int[] pcm;
  static void clinit() {
    Mpeg.window = new int[512];
    Mpeg.coeffs = new int[64];
    Mpeg.bands = new int[32];
    Mpeg.pcm = new int[32];
    for (int i = 0; i < 512; i++) { Mpeg.window[i] = hash(i) % 256 - 128; }
    for (int i = 0; i < 64; i++) { Mpeg.coeffs[i] = hash(i + 512) % 128; }
  }
  static void main() {
    // Mpeg.clinit runs automatically on the first static access
    int frames = param("iters");
    int n = param("size");
    int check = 0;
    for (int f = 0; f < frames; f++) {
      check = (check + frame(f, n)) % 100000;
    }
    print(check);
  }
  static int frame(int seed, int n) {
    int[] bands = Mpeg.bands;
    int[] pcm = Mpeg.pcm;
    int[] window = Mpeg.window;
    int[] coeffs = Mpeg.coeffs;
    for (int i = 0; i < n; i++) { bands[i] = hash(seed * 32 + i) % 1024; }
    // sliding window update: read-modify-write runs on one static array
    // (these fold into aggregated barriers but stay public, so DEA
    // cannot help - the paper's mpegaudio behaviour)
    for (int k = 0; k < 64; k++) {
      int w0 = window[k * 8];
      window[k * 8] = w0 - w0 / 16 + k % 3;
      window[k * 8 + 1] = window[k * 8 + 1] + w0 % 5;
    }
    for (int i = 0; i < n; i++) {
      int acc = 0;
      for (int j = 0; j < 16; j++) {
        acc = acc + bands[(i + j) % 32] * window[(i * 16 + j) % 512]
                  + coeffs[(i + j * 2) % 64];
      }
      pcm[i] = pcm[i] / 2 + acc / 16;
    }
    int out = 0;
    for (int i = 0; i < n; i++) { out = out + abs(pcm[i]) % 251; }
    return out;
  }
}
|};
  }

(* Provably-local temporaries: the one kernel where intraprocedural
   escape analysis wins noticeably (paper: -30%). *)
let mtrt =
  {
    Workload.name = "mtrt";
    descr = "ray/sphere intersection with short-lived vectors";
    kind = Workload.Nontxn;
    params = [ ("size", 24); ("iters", 260) ];
    source =
      {|
class Vec {
  int x;
  int y;
  int z;
}
class Sphere {
  Vec center;
  int r2;
  int color;
}
class Scene {
  Sphere[] spheres;
  int n;
}
class Mtrt {
  static void main() {
    int nspheres = param("size");
    int rays = param("iters");
    Scene sc = buildScene(nspheres);
    int check = 0;
    for (int i = 0; i < rays; i++) {
      check = (check + trace(sc, i)) % 100000;
    }
    print(check);
  }
  static Scene buildScene(int n) {
    Scene sc = new Scene();
    sc.spheres = new Sphere[n];
    sc.n = n;
    for (int i = 0; i < n; i++) {
      Sphere s = new Sphere();
      Vec c = new Vec();
      c.x = hash(i * 3) % 200 - 100;
      c.y = hash(i * 3 + 1) % 200 - 100;
      c.z = 100 + hash(i * 3 + 2) % 400;
      s.center = c;
      s.r2 = 100 + hash(i + 77) % 900;
      s.color = i;
      sc.spheres[i] = s;
    }
    return sc;
  }
  static int trace(Scene sc, int seed) {
    // ray direction: a fresh vector that never escapes this method -
    // intraprocedural escape analysis removes its barriers
    Vec d = new Vec();
    d.x = hash(seed) % 41 - 20;
    d.y = hash(seed + 1) % 41 - 20;
    d.z = 64;
    int best = -1;
    int bestDist = 1000000;
    Sphere[] ss = sc.spheres;
    for (int i = 0; i < sc.n; i++) {
      Sphere s = ss[i];
      Vec c = s.center;
      // projected distance along the ray (fixed point, scaled by 64)
      int dot = c.x * d.x + c.y * d.y + c.z * d.z;
      if (dot > 0) {
        int len2 = c.x * c.x + c.y * c.y + c.z * c.z;
        int proj2 = dot / 64 * (dot / 64) / (d.x * d.x + d.y * d.y + d.z * d.z + 1) * 64;
        int perp2 = len2 - proj2;
        if (perp2 < s.r2 && len2 < bestDist) {
          bestDist = len2;
          best = s.color;
        }
      }
    }
    return best + bestDist % 97;
  }
}
|};
  }

let jack =
  {
    Workload.name = "jack";
    descr = "token scanner producing token objects";
    kind = Workload.Nontxn;
    params = [ ("size", 1600); ("iters", 3) ];
    source =
      {|
class Token {
  int kind;
  int start;
  int len;
  Token next;
}
class Jack {
  static Token mkToken() { return new Token(); }
  static void main() {
    int size = param("size");
    int iters = param("iters");
    int check = 0;
    for (int it = 0; it < iters; it++) {
      check = check + scan(it, size);
    }
    print(check);
  }
  static int scan(int seed, int size) {
    int[] input = new int[size];
    for (int i = 0; i < size; i++) {
      int h = hash(i + seed * 991) % 100;
      // classes: 0-59 letter, 60-89 digit, 90-99 space
      input[i] = h;
    }
    Token head = null;
    int ntok = 0;
    int i = 0;
    while (i < size) {
      int c = input[i];
      Token t = mkToken();
      t.start = i;
      if (c < 60) {
        t.kind = 1;
        while (i < size && input[i] < 60) { i = i + 1; }
      } else {
        if (c < 90) {
          t.kind = 2;
          while (i < size && input[i] >= 60 && input[i] < 90) { i = i + 1; }
        } else {
          t.kind = 0;
          while (i < size && input[i] >= 90) { i = i + 1; }
        }
      }
      t.len = i - t.start;
      t.next = head;
      head = t;
      ntok = ntok + 1;
    }
    int sum = 0;
    Token p = head;
    while (p != null) {
      sum = sum + p.kind * p.len;
      p = p.next;
    }
    return (sum + ntok) % 100000;
  }
}
|};
  }

let all = [ compress; jess; db; javac; mpegaudio; mtrt; jack ]
