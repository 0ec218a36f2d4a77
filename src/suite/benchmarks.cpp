#include "suite/benchmarks.hpp"

#include "util/error.hpp"

namespace mcrtl::suite {

using dfg::Graph;
using dfg::Op;
using dfg::ResourceLimits;
using dfg::Schedule;
using dfg::ValueId;

namespace {

/// Finish a benchmark: validate and attach the given schedule.
Benchmark finish(std::string name, std::string description,
                 std::unique_ptr<Graph> g, Schedule sched) {
  g->validate();
  sched.validate();
  Benchmark b;
  b.name = std::move(name);
  b.description = std::move(description);
  // The schedule must reference the heap graph it was built on.
  b.schedule = std::make_unique<Schedule>(std::move(sched));
  b.graph = std::move(g);
  return b;
}

}  // namespace

Benchmark motivating(unsigned width) {
  // Fig. 1: six (+,-) operations in five steps. The reference schedule is
  // the paper's: N1@T1, N2@T2, {N3,N4}@T3, N5@T4, N6@T5, so the odd/even
  // split puts {N1,N3,N4p? } ... exactly the unshaded/shaded partition of
  // Fig. 1(c) under the 2-clock rule k = t mod 2.
  auto g = std::make_unique<Graph>("motivating", width);
  const ValueId a = g->add_input("a");
  const ValueId b = g->add_input("b");
  const ValueId c = g->add_input("c");
  const ValueId d = g->add_input("d");
  const ValueId e = g->add_input("e");
  const ValueId f = g->add_input("f");
  const ValueId gg = g->add_input("g");

  const auto n1 = g->add_node(Op::Add, {a, b}, "N1");
  const auto n2 = g->add_node(Op::Sub, {g->node(n1).output, c}, "N2");
  const auto n3 = g->add_node(Op::Add, {g->node(n2).output, d}, "N3");
  const auto n4 = g->add_node(Op::Sub, {e, f}, "N4");
  const auto n5 = g->add_node(Op::Add, {g->node(n4).output, gg}, "N5");
  const auto n6 = g->add_node(Op::Sub, {g->node(n3).output, g->node(n5).output}, "N6");
  g->mark_output(g->node(n6).output);

  Schedule s(*g);
  s.set_step(n1, 1);
  s.set_step(n2, 2);
  s.set_step(n3, 3);
  s.set_step(n4, 3);
  s.set_step(n5, 4);
  s.set_step(n6, 5);
  return finish("motivating", "paper Fig. 1 example (6 ops, 5 steps)",
                std::move(g), std::move(s));
}

Benchmark facet(unsigned width) {
  // Reconstructed from the op mix of the paper's Table 1: a small behaviour
  // over {+, -, *, /, &, |} with enough step-level parallelism that the
  // conventional allocation needs four ALUs including a multiplier and a
  // divider.
  auto g = std::make_unique<Graph>("facet", width);
  const ValueId a = g->add_input("a");
  const ValueId b = g->add_input("b");
  const ValueId c = g->add_input("c");
  const ValueId d = g->add_input("d");
  const ValueId e = g->add_input("e");
  const ValueId f = g->add_input("f");

  const ValueId m1 = g->add_op(Op::Mul, a, b, "m1");        // a*b
  const ValueId s1 = g->add_op(Op::Add, c, d, "s1");        // c+d
  const ValueId l1 = g->add_op(Op::And, e, f, "l1");        // e&f
  const ValueId q1 = g->add_op(Op::Div, m1, s1, "q1");      // (a*b)/(c+d)
  const ValueId s2 = g->add_op(Op::Sub, s1, e, "s2");       // c+d-e
  const ValueId l2 = g->add_op(Op::Or, l1, s2, "l2");       // (e&f)|(c+d-e)
  const ValueId s3 = g->add_op(Op::Add, q1, l2, "s3");
  const ValueId s4 = g->add_op(Op::Sub, s3, l1, "s4");
  g->mark_output(s3);
  g->mark_output(s4);

  ResourceLimits limits;
  limits.default_limit = 2;
  limits.per_op[Op::Mul] = 1;
  limits.per_op[Op::Div] = 1;
  Schedule s = dfg::schedule_list(*g, limits);
  Benchmark bm = finish("facet", "FACET example (op mix of Table 1)",
                        std::move(g), std::move(s));
  bm.paper = PaperTable{"Table 1: Multiple Clocks with Latches for the FACET",
                        {{{9.85, 2680425},
                          {6.92, 2383553},
                          {7.39, 2668365},
                          {6.41, 2552425},
                          {3.52, 2484873}}}};
  return bm;
}

Benchmark hal(unsigned width) {
  // One Euler integration step of y'' + 3xy' + 3y = 0 (the HAL benchmark):
  //   x1 = x + dx
  //   u1 = u - 3*x*(u*dx) - 3*y*dx
  //   y1 = y + u*dx
  //   c  = x1 < a
  auto g = std::make_unique<Graph>("hal", width);
  const ValueId x = g->add_input("x");
  const ValueId y = g->add_input("y");
  const ValueId u = g->add_input("u");
  const ValueId dx = g->add_input("dx");
  const ValueId a = g->add_input("a");
  const ValueId three = g->add_constant(3, "three");

  const ValueId m1 = g->add_op(Op::Mul, three, x, "m1");   // 3x
  const ValueId m2 = g->add_op(Op::Mul, u, dx, "m2");      // u*dx
  const ValueId m3 = g->add_op(Op::Mul, three, y, "m3");   // 3y
  const ValueId m4 = g->add_op(Op::Mul, m1, m2, "m4");     // 3x*u*dx
  const ValueId m5 = g->add_op(Op::Mul, m3, dx, "m5");     // 3y*dx
  const ValueId m6 = g->add_op(Op::Mul, u, dx, "m6");      // u*dx (for y1)
  const ValueId s1 = g->add_op(Op::Sub, u, m4, "s1");      // u - 3x*u*dx
  const ValueId u1 = g->add_op(Op::Sub, s1, m5, "u1");
  const ValueId x1 = g->add_op(Op::Add, x, dx, "x1");
  const ValueId y1 = g->add_op(Op::Add, y, m6, "y1");
  const ValueId cc = g->add_op(Op::Lt, x1, a, "c");
  g->mark_output(u1);
  g->mark_output(x1);
  g->mark_output(y1);
  g->mark_output(cc);

  ResourceLimits limits;
  limits.default_limit = 2;
  limits.per_op[Op::Mul] = 2;  // the classic 2-multiplier HAL schedule
  Schedule s = dfg::schedule_list(*g, limits);
  Benchmark bm = finish("hal", "HAL differential equation [Paulin-Knight 89]",
                        std::move(g), std::move(s));
  bm.paper = PaperTable{"Table 2: Multiple Clocks with Latches for the HAL",
                        {{{12.48, 3080133},
                          {8.12, 2819025},
                          {5.61, 2627484},
                          {4.98, 2901501},
                          {3.73, 2954465}}}};
  return bm;
}

Benchmark biquad(unsigned width) {
  // Two cascaded direct-form-II biquad sections. Filter state (w1, w2 per
  // section) enters as primary inputs and the updated state leaves as
  // primary outputs; the harness feeds it back between computations.
  auto g = std::make_unique<Graph>("biquad", width);
  const ValueId x = g->add_input("x");
  const ValueId w11 = g->add_input("w11");
  const ValueId w12 = g->add_input("w12");
  const ValueId w21 = g->add_input("w21");
  const ValueId w22 = g->add_input("w22");
  const ValueId a11 = g->add_constant(3, "a11");
  const ValueId a12 = g->add_constant(-2, "a12");
  const ValueId b10 = g->add_constant(1, "b10");
  const ValueId b11 = g->add_constant(2, "b11");
  const ValueId b12 = g->add_constant(1, "b12");
  const ValueId a21 = g->add_constant(2, "a21");
  const ValueId a22 = g->add_constant(-1, "a22");
  const ValueId b21 = g->add_constant(2, "b21");

  // Section 1: w = x - a11*w11 - a12*w12 ; y = b10*w + b11*w11 + b12*w12
  const ValueId p1 = g->add_op(Op::Mul, a11, w11, "p1");
  const ValueId p2 = g->add_op(Op::Mul, a12, w12, "p2");
  const ValueId d1 = g->add_op(Op::Sub, x, p1, "d1");
  const ValueId w1n = g->add_op(Op::Sub, d1, p2, "w1n");
  const ValueId p3 = g->add_op(Op::Mul, b10, w1n, "p3");
  const ValueId p4 = g->add_op(Op::Mul, b11, w11, "p4");
  const ValueId p5 = g->add_op(Op::Mul, b12, w12, "p5");
  const ValueId s1 = g->add_op(Op::Add, p3, p4, "s1");
  const ValueId y1 = g->add_op(Op::Add, s1, p5, "y1");
  // Section 2 on y1.
  const ValueId p6 = g->add_op(Op::Mul, a21, w21, "p6");
  const ValueId p7 = g->add_op(Op::Mul, a22, w22, "p7");
  const ValueId d2 = g->add_op(Op::Sub, y1, p6, "d2");
  const ValueId w2n = g->add_op(Op::Sub, d2, p7, "w2n");
  const ValueId p8 = g->add_op(Op::Mul, b21, w2n, "p8");
  const ValueId p9 = g->add_op(Op::Mul, b11, w21, "p9");
  const ValueId p10 = g->add_op(Op::Mul, b12, w22, "p10");
  const ValueId s2 = g->add_op(Op::Add, p8, p9, "s2");
  const ValueId y2 = g->add_op(Op::Add, s2, p10, "y2");

  g->mark_output(y2);
  g->mark_output(w1n);  // next w11 (w12 <- old w11 outside)
  g->mark_output(w2n);

  ResourceLimits limits;
  limits.default_limit = 2;
  limits.per_op[Op::Mul] = 2;
  Schedule s = dfg::schedule_list(*g, limits);
  Benchmark bm =
      finish("biquad", "two cascaded direct-form-II biquad sections",
             std::move(g), std::move(s));
  bm.paper = PaperTable{
      "Table 3: Multiple Clocks with Latches for the Biquad Filter",
      {{{18.65, 5118795},
        {11.49, 4826283},
        {11.31, 5126718},
        {9.24, 5194451},
        {7.19, 5327823}}}};
  return bm;
}

Benchmark bandpass(unsigned width) {
  // Fourth-order band-pass filter: two direct-form-I sections with one
  // shared multiplier's worth of concurrency (the paper's conventional
  // band-pass design has a single (*) ALU, i.e. a long, serial schedule).
  auto g = std::make_unique<Graph>("bandpass", width);
  const ValueId x = g->add_input("x");
  const ValueId x1 = g->add_input("x1");
  const ValueId x2 = g->add_input("x2");
  const ValueId y1 = g->add_input("y1");
  const ValueId y2 = g->add_input("y2");
  const ValueId v1 = g->add_input("v1");
  const ValueId v2 = g->add_input("v2");
  const ValueId b0 = g->add_constant(1, "b0");
  const ValueId b2 = g->add_constant(-1, "b2");
  const ValueId a1 = g->add_constant(2, "a1");
  const ValueId a2 = g->add_constant(-1, "a2");
  const ValueId c1 = g->add_constant(3, "c1");
  const ValueId c2 = g->add_constant(-2, "c2");

  // Section 1 (direct form I): w = b0*x + b2*x2 + a1*y1 + a2*y2
  const ValueId q1 = g->add_op(Op::Mul, b0, x, "q1");
  const ValueId q2 = g->add_op(Op::Mul, b2, x2, "q2");
  const ValueId q3 = g->add_op(Op::Mul, a1, y1, "q3");
  const ValueId q4 = g->add_op(Op::Mul, a2, y2, "q4");
  const ValueId t1 = g->add_op(Op::Add, q1, q2, "t1");
  const ValueId t2 = g->add_op(Op::Add, q3, q4, "t2");
  const ValueId w = g->add_op(Op::Add, t1, t2, "w");
  // Section 2: z = b0*w + b2*v2 + c1*v1 + c2*... (v = section-2 output
  // history)
  const ValueId q5 = g->add_op(Op::Mul, b0, w, "q5");
  const ValueId q6 = g->add_op(Op::Mul, b2, x1, "q6");
  const ValueId q7 = g->add_op(Op::Mul, c1, v1, "q7");
  const ValueId q8 = g->add_op(Op::Mul, c2, v2, "q8");
  const ValueId t3 = g->add_op(Op::Add, q5, q6, "t3");
  const ValueId t4 = g->add_op(Op::Add, q7, q8, "t4");
  const ValueId z = g->add_op(Op::Add, t3, t4, "z");

  g->mark_output(w);   // next y1
  g->mark_output(z);   // filter output, next v1

  ResourceLimits limits;
  limits.default_limit = 2;
  limits.per_op[Op::Mul] = 1;  // serial multiplier, as in Table 4's baseline
  Schedule s = dfg::schedule_list(*g, limits);
  Benchmark bm =
      finish("bandpass", "fourth-order band-pass filter (DF-I cascade)",
             std::move(g), std::move(s));
  bm.paper = PaperTable{
      "Table 4: Multiple Clocks with Latches for the Band Pass Filter",
      {{{18.01, 5588975},
        {8.87, 4181238},
        {7.39, 3049956},
        {6.15, 3729654},
        {5.78, 4728731}}}};
  return bm;
}

Benchmark ewf(unsigned width) {
  // Elliptic-wave-filter-like behaviour: the classic 34-op, add-dominated
  // profile (8 *, 26 +) of the 5th-order EWF benchmark, built as a ladder
  // of adder chains with multiplier taps.
  auto g = std::make_unique<Graph>("ewf", width);
  std::vector<ValueId> in;
  for (int i = 0; i < 8; ++i) in.push_back(g->add_input("s" + std::to_string(i)));
  const ValueId x = g->add_input("x");
  std::vector<ValueId> k;
  for (int i = 0; i < 8; ++i) {
    k.push_back(g->add_constant(i % 3 + 1, "k" + std::to_string(i)));
  }

  // Ladder: alternating accumulate / tap-scale stages.
  std::vector<ValueId> acc;
  ValueId carry = x;
  for (int i = 0; i < 8; ++i) {
    const ValueId sum1 = g->add_op(Op::Add, carry, in[static_cast<std::size_t>(i)]);
    const ValueId tap = g->add_op(Op::Mul, k[static_cast<std::size_t>(i)], sum1);
    const ValueId sum2 = g->add_op(Op::Add, tap, in[static_cast<std::size_t>(7 - i)]);
    carry = g->add_op(Op::Add, sum1, sum2);
    acc.push_back(sum2);
  }
  // Output combining tree.
  while (acc.size() > 1) {
    std::vector<ValueId> next;
    for (std::size_t i = 0; i + 1 < acc.size(); i += 2) {
      next.push_back(g->add_op(Op::Add, acc[i], acc[i + 1]));
    }
    if (acc.size() % 2) next.push_back(acc.back());
    acc = std::move(next);
  }
  g->mark_output(acc[0]);
  g->mark_output(carry);

  ResourceLimits limits;
  limits.default_limit = 3;
  limits.per_op[Op::Mul] = 2;
  Schedule s = dfg::schedule_list(*g, limits);
  return finish("ewf", "elliptic-wave-filter-like ladder (add-dominated)",
                std::move(g), std::move(s));
}

Benchmark ar_lattice(unsigned width) {
  // Two stages of an auto-regressive lattice filter: multiplier-heavy with
  // tight cross-stage dependences.
  auto g = std::make_unique<Graph>("ar_lattice", width);
  const ValueId f0 = g->add_input("f0");
  const ValueId b0 = g->add_input("b0");
  const ValueId b1 = g->add_input("b1");
  const ValueId k1 = g->add_constant(2, "k1");
  const ValueId k2 = g->add_constant(-3, "k2");

  // Stage 1: f1 = f0 - k1*b0 ; b1n = b0 - k1*f1
  const ValueId m1 = g->add_op(Op::Mul, k1, b0, "m1");
  const ValueId f1 = g->add_op(Op::Sub, f0, m1, "f1");
  const ValueId m2 = g->add_op(Op::Mul, k1, f1, "m2");
  const ValueId b1n = g->add_op(Op::Sub, b0, m2, "b1n");
  // Stage 2 on (f1, b1).
  const ValueId m3 = g->add_op(Op::Mul, k2, b1, "m3");
  const ValueId f2 = g->add_op(Op::Sub, f1, m3, "f2");
  const ValueId m4 = g->add_op(Op::Mul, k2, f2, "m4");
  const ValueId b2n = g->add_op(Op::Sub, b1, m4, "b2n");
  // Energy estimate: e = f2*f2 + b2n*b2n.
  const ValueId e1 = g->add_op(Op::Mul, f2, f2, "e1");
  const ValueId e2 = g->add_op(Op::Mul, b2n, b2n, "e2");
  const ValueId e = g->add_op(Op::Add, e1, e2, "e");

  g->mark_output(f2);
  g->mark_output(b1n);
  g->mark_output(b2n);
  g->mark_output(e);

  ResourceLimits limits;
  limits.default_limit = 2;
  limits.per_op[Op::Mul] = 2;
  Schedule s = dfg::schedule_list(*g, limits);
  return finish("ar_lattice", "two-stage AR lattice filter (mul-heavy)",
                std::move(g), std::move(s));
}

Benchmark fir8(unsigned width) {
  // 8-tap FIR: y = sum c_i * x_i. Taps enter as primary inputs (the delay
  // line lives outside, like the biquad state).
  auto g = std::make_unique<Graph>("fir8", width);
  std::vector<ValueId> taps;
  for (int i = 0; i < 8; ++i) taps.push_back(g->add_input("x" + std::to_string(i)));
  std::vector<ValueId> coef;
  for (int i = 0; i < 8; ++i) {
    coef.push_back(g->add_constant((i % 4) - 1, "c" + std::to_string(i)));
  }
  std::vector<ValueId> prods;
  for (int i = 0; i < 8; ++i) {
    prods.push_back(g->add_op(Op::Mul, coef[static_cast<std::size_t>(i)],
                              taps[static_cast<std::size_t>(i)]));
  }
  while (prods.size() > 1) {
    std::vector<ValueId> next;
    for (std::size_t i = 0; i + 1 < prods.size(); i += 2) {
      next.push_back(g->add_op(Op::Add, prods[i], prods[i + 1]));
    }
    if (prods.size() % 2) next.push_back(prods.back());
    prods = std::move(next);
  }
  g->mark_output(prods[0]);

  ResourceLimits limits;
  limits.default_limit = 2;
  limits.per_op[Op::Mul] = 2;
  Schedule s = dfg::schedule_list(*g, limits);
  return finish("fir8", "8-tap FIR filter", std::move(g), std::move(s));
}

Benchmark dct4(unsigned width) {
  // 4-point DCT-II via the even/odd butterfly decomposition:
  //   s0 = x0 + x3, s1 = x1 + x2, d0 = x0 - x3, d1 = x1 - x2
  //   X0 = c4*(s0 + s1)          X2 = c4*(s0 - s1)
  //   X1 = c2*d0 + c6*d1         X3 = c6*d0 - c2*d1
  // (integer cosine coefficients; wide step-level parallelism makes this a
  // good stress for the partitioners).
  auto g = std::make_unique<Graph>("dct4", width);
  std::vector<ValueId> x;
  for (int i = 0; i < 4; ++i) x.push_back(g->add_input("x" + std::to_string(i)));
  const ValueId c4 = g->add_constant(3, "c4");
  const ValueId c2 = g->add_constant(4, "c2");
  const ValueId c6 = g->add_constant(2, "c6");

  const ValueId s0 = g->add_op(Op::Add, x[0], x[3], "s0");
  const ValueId s1 = g->add_op(Op::Add, x[1], x[2], "s1");
  const ValueId d0 = g->add_op(Op::Sub, x[0], x[3], "d0");
  const ValueId d1 = g->add_op(Op::Sub, x[1], x[2], "d1");

  const ValueId e0 = g->add_op(Op::Add, s0, s1, "e0");
  const ValueId e1 = g->add_op(Op::Sub, s0, s1, "e1");
  const ValueId X0 = g->add_op(Op::Mul, c4, e0, "X0");
  const ValueId X2 = g->add_op(Op::Mul, c4, e1, "X2");

  const ValueId p0 = g->add_op(Op::Mul, c2, d0, "p0");
  const ValueId p1 = g->add_op(Op::Mul, c6, d1, "p1");
  const ValueId p2 = g->add_op(Op::Mul, c6, d0, "p2");
  const ValueId p3 = g->add_op(Op::Mul, c2, d1, "p3");
  const ValueId X1 = g->add_op(Op::Add, p0, p1, "X1");
  const ValueId X3 = g->add_op(Op::Sub, p2, p3, "X3");

  g->mark_output(X0);
  g->mark_output(X1);
  g->mark_output(X2);
  g->mark_output(X3);

  ResourceLimits limits;
  limits.default_limit = 2;
  limits.per_op[Op::Mul] = 2;
  Schedule s = dfg::schedule_list(*g, limits);
  return finish("dct4", "4-point DCT-II butterfly network", std::move(g),
                std::move(s));
}

std::vector<std::string> all_names() {
  return {"motivating", "facet", "hal",        "biquad", "bandpass",
          "ewf",        "fir8",  "ar_lattice", "dct4"};
}

Benchmark by_name(const std::string& name, unsigned width) {
  if (name == "motivating") return motivating(width);
  if (name == "facet") return facet(width);
  if (name == "hal") return hal(width);
  if (name == "biquad") return biquad(width);
  if (name == "bandpass") return bandpass(width);
  if (name == "ewf") return ewf(width);
  if (name == "ar_lattice") return ar_lattice(width);
  if (name == "fir8") return fir8(width);
  if (name == "dct4") return dct4(width);
  throw Error("unknown benchmark: '" + name + "'");
}

}  // namespace mcrtl::suite
