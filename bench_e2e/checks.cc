// The benchmark's own answers: searches over adjacency lists built from the
// generated columns, and the canonical result form the checkers compare.

#include <algorithm>
#include <deque>
#include <numeric>
#include <sstream>

#include "bench.h"

namespace bench {

std::vector<int64_t> ReachableFrom(const Graph& g, int64_t src) {
  // BFS seeded with the successors of `src`, so `src` itself is reached
  // only through a cycle (walks of one or more edges).
  std::vector<char> seen(static_cast<size_t>(g.nodes) + 1, 0);
  std::vector<int64_t> frontier;
  for (int64_t v : g.out[static_cast<size_t>(src)]) {
    if (!seen[static_cast<size_t>(v)]) {
      seen[static_cast<size_t>(v)] = 1;
      frontier.push_back(v);
    }
  }
  for (size_t i = 0; i < frontier.size(); ++i) {
    for (int64_t w : g.out[static_cast<size_t>(frontier[i])]) {
      if (!seen[static_cast<size_t>(w)]) {
        seen[static_cast<size_t>(w)] = 1;
        frontier.push_back(w);
      }
    }
  }
  std::sort(frontier.begin(), frontier.end());
  return frontier;
}

std::vector<std::pair<int64_t, int64_t>> DistancesFrom(const Graph& g,
                                                       int64_t src) {
  std::vector<int64_t> dist(static_cast<size_t>(g.nodes) + 1, -1);
  std::deque<int64_t> queue;
  for (int64_t v : g.out[static_cast<size_t>(src)]) {
    if (dist[static_cast<size_t>(v)] < 0) {
      dist[static_cast<size_t>(v)] = 1;
      queue.push_back(v);
    }
  }
  while (!queue.empty()) {
    int64_t u = queue.front();
    queue.pop_front();
    for (int64_t w : g.out[static_cast<size_t>(u)]) {
      if (dist[static_cast<size_t>(w)] < 0) {
        dist[static_cast<size_t>(w)] = dist[static_cast<size_t>(u)] + 1;
        queue.push_back(w);
      }
    }
  }
  std::vector<std::pair<int64_t, int64_t>> out;
  for (int64_t v = 1; v <= g.nodes; ++v) {
    if (dist[static_cast<size_t>(v)] > 0) {
      out.emplace_back(v, dist[static_cast<size_t>(v)]);
    }
  }
  return out;
}

std::vector<int64_t> WithinHops(const Graph& g, int64_t src, int max_hops) {
  std::vector<char> in_result(static_cast<size_t>(g.nodes) + 1, 0);
  std::vector<int64_t> level = {src};
  for (int hop = 1; hop <= max_hops; ++hop) {
    std::vector<char> in_next(static_cast<size_t>(g.nodes) + 1, 0);
    std::vector<int64_t> next;
    for (int64_t u : level) {
      for (int64_t w : g.out[static_cast<size_t>(u)]) {
        if (!in_next[static_cast<size_t>(w)]) {
          in_next[static_cast<size_t>(w)] = 1;
          next.push_back(w);
        }
        in_result[static_cast<size_t>(w)] = 1;
      }
    }
    level = std::move(next);
  }
  std::vector<int64_t> out;
  for (int64_t v = 1; v <= g.nodes; ++v) {
    if (in_result[static_cast<size_t>(v)]) out.push_back(v);
  }
  return out;
}

namespace {

// Sorts the rows of a flat (kinds, words) layout in place.
void SortRows(Canonical* c) {
  const size_t n = c->rows();
  const size_t a = c->arity;
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
    for (size_t k = 0; k < a; ++k) {
      uint8_t kx = c->kinds[x * a + k];
      uint8_t ky = c->kinds[y * a + k];
      if (kx != ky) return kx < ky;
      int64_t wx = c->words[x * a + k];
      int64_t wy = c->words[y * a + k];
      if (wx != wy) return wx < wy;
    }
    return false;
  });
  Canonical sorted;
  sorted.arity = a;
  sorted.words.reserve(c->words.size());
  sorted.kinds.reserve(c->kinds.size());
  for (uint32_t r : order) {
    for (size_t k = 0; k < a; ++k) {
      sorted.words.push_back(c->words[r * a + k]);
      sorted.kinds.push_back(c->kinds[r * a + k]);
    }
  }
  *c = std::move(sorted);
}

// Appends `row` to `c`; a row of the wrong width is padded with a kind no
// value has, so it can never compare equal.
void AppendRow(const raqlet::Tuple& row, Canonical* c) {
  for (size_t k = 0; k < c->arity; ++k) {
    if (k < row.size()) {
      c->words.push_back(row[k].RawBits());
      c->kinds.push_back(static_cast<uint8_t>(row[k].kind()));
    } else {
      c->words.push_back(0);
      c->kinds.push_back(0xff);
    }
  }
  if (row.size() > c->arity) c->kinds.back() = 0xfe;
}

}  // namespace

Canonical Canonicalize(const raqlet::engine::ResultTable& table,
                       size_t arity) {
  Canonical c;
  c.arity = arity;
  c.words.reserve(table.rows.size() * arity);
  c.kinds.reserve(table.rows.size() * arity);
  for (const raqlet::Tuple& row : table.rows) AppendRow(row, &c);
  SortRows(&c);
  return c;
}

Canonical CanonicalRows(std::vector<raqlet::Tuple> rows, size_t arity) {
  Canonical c;
  c.arity = arity;
  for (const raqlet::Tuple& row : rows) AppendRow(row, &c);
  SortRows(&c);
  return c;
}

Canonical CanonicalPairs(std::vector<std::pair<int64_t, int64_t>> rows) {
  std::sort(rows.begin(), rows.end());
  Canonical c;
  c.arity = 2;
  c.words.reserve(rows.size() * 2);
  for (const auto& [a, b] : rows) {
    c.words.push_back(a);
    c.words.push_back(b);
  }
  c.kinds.assign(c.words.size(),
                 static_cast<uint8_t>(raqlet::ValueType::kNumber));
  return c;
}

Canonical CanonicalIds(const std::vector<int64_t>& ids) {
  Canonical c;
  c.arity = 1;
  c.words = ids;
  std::sort(c.words.begin(), c.words.end());
  c.kinds.assign(c.words.size(),
                 static_cast<uint8_t>(raqlet::ValueType::kNumber));
  return c;
}

std::string Compare(const Canonical& got, const Canonical& want) {
  std::ostringstream why;
  if (got.arity != want.arity) {
    why << "arity " << got.arity << " != expected " << want.arity;
    return why.str();
  }
  if (got.words == want.words && got.kinds == want.kinds) return "";
  why << got.rows() << " rows, expected " << want.rows();
  const size_t a = want.arity;
  for (size_t r = 0; r < std::min(got.rows(), want.rows()); ++r) {
    for (size_t k = 0; k < a; ++k) {
      size_t i = r * a + k;
      if (got.words[i] != want.words[i] || got.kinds[i] != want.kinds[i]) {
        why << "; first difference at sorted row " << r << " column " << k
            << ": got " << got.words[i] << " expected " << want.words[i];
        return why.str();
      }
    }
  }
  return why.str();
}

}  // namespace bench
