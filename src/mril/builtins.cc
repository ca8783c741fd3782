#include "mril/builtins.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/check.h"
#include "common/strings.h"
#include "serde/record_codec.h"

namespace manimal::mril {

namespace {

Status WantStr(const Value& v, const char* who) {
  if (!v.is_str()) {
    return Status::InvalidArgument(std::string(who) + ": expected str, got " +
                                   ValueKindName(v.kind()));
  }
  return Status::OK();
}

Status WantI64(const Value& v, const char* who) {
  if (!v.is_i64()) {
    return Status::InvalidArgument(std::string(who) +
                                   ": expected i64, got " +
                                   ValueKindName(v.kind()));
  }
  return Status::OK();
}

Status WantNumeric(const Value& v, const char* who) {
  if (!v.is_numeric()) {
    return Status::InvalidArgument(std::string(who) +
                                   ": expected numeric, got " +
                                   ValueKindName(v.kind()));
  }
  return Status::OK();
}

Status WantHashtable(const Value& v, HashtableObject** out,
                     const char* who) {
  if (!v.is_handle()) {
    return Status::InvalidArgument(std::string(who) +
                                   ": expected hashtable handle");
  }
  auto* ht = dynamic_cast<HashtableObject*>(v.handle().get());
  if (ht == nullptr) {
    return Status::InvalidArgument(std::string(who) +
                                   ": handle is not a hashtable");
  }
  *out = ht;
  return Status::OK();
}

// strtoll/strtod need NUL-terminated input; string_view is not. Parse
// through a stack buffer (falls back to a heap copy only for
// implausibly long numerals).
template <typename Parse>
auto ParseNumeral(std::string_view s, Parse parse) {
  char buf[64];
  if (s.size() < sizeof(buf)) {
    std::memcpy(buf, s.data(), s.size());
    buf[s.size()] = '\0';
    return parse(buf);
  }
  return parse(std::string(s).c_str());
}

// str.word_at(s, i) is the tokenization idiom in Benchmark-4-style
// map() code: a loop calling word_at(doc, 0), word_at(doc, 1), ... up
// to word_count. A from-scratch scan per call makes that loop
// quadratic in the document length, so we memoize the scan position of
// the previous call and resume from it when the same string is asked
// for a later word. The memo key must prove "same string":
//   owned     shared_ptr pointee identity; `keepalive` holds a
//             reference so the allocation cannot be freed and reused
//             at the same address while the memo is live.
//   borrowed  (data, len) plus the thread's borrow epoch. Within one
//             epoch, live borrowed buffers are never reclaimed (the
//             Value::Borrowed lifetime contract), so (data, len)
//             uniquely identifies content; the VM bumps the epoch via
//             InvalidateBorrowedStringMemos() whenever buffers may be
//             recycled (each invocation entry, next to arena reset).
//   inline    never memoized: the bytes live inside the argument Value
//             itself (a stack slot whose address is reused constantly),
//             and a <=22-byte scan is cheap anyway.
struct WordAtMemo {
  const char* data = nullptr;
  size_t len = 0;
  uint64_t epoch = 0;                      // borrowed-key validity
  std::shared_ptr<std::string> keepalive;  // non-null => owned key
  int64_t next_index = 0;  // first word index at/after `offset`
  size_t offset = 0;       // scan resume position (a word boundary)
};

thread_local uint64_t g_borrow_epoch = 0;
thread_local WordAtMemo g_word_at_memo;

// Scans `s` for word number `want` starting at `pos`, with `index`
// words already counted before `pos` (`pos` must be a word boundary:
// 0 or just past the end of word `index`). Words are maximal runs of
// characters other than ' ', '\t', '\n'.
bool FindWord(std::string_view s, int64_t want, size_t pos, int64_t index,
              size_t* start, size_t* end) {
  bool in_word = false;
  size_t word_start = 0;
  for (size_t i = pos; i <= s.size(); ++i) {
    bool is_space =
        (i == s.size() || s[i] == ' ' || s[i] == '\t' || s[i] == '\n');
    if (!is_space && !in_word) {
      ++index;
      word_start = i;
    }
    if (is_space && in_word && index == want) {
      *start = word_start;
      *end = i;
      return true;
    }
    in_word = !is_space;
  }
  return false;
}

}  // namespace

void InvalidateBorrowedStringMemos() {
  ++g_borrow_epoch;
  WordAtMemo& memo = g_word_at_memo;
  if (memo.data != nullptr && memo.keepalive == nullptr) {
    // Drop the stale borrowed key eagerly (epoch alone already
    // invalidates it; this keeps the dangling pointer from lingering).
    memo = WordAtMemo();
  }
}

void HashtableObject::Put(const Value& key, const Value& value) {
  for (auto& [k, v] : entries_) {
    if (k == key) {
      v = value.ToOwned();
      return;
    }
  }
  entries_.emplace_back(key.ToOwned(), value.ToOwned());
}

bool HashtableObject::Contains(const Value& key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return true;
  }
  return false;
}

Value HashtableObject::Get(const Value& key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return v;
  }
  return Value::Null();
}

BuiltinRegistry::BuiltinRegistry() {
  auto add = [this](std::string name, int arity, bool functional,
                    BuiltinFn fn) {
    Builtin b;
    b.id = static_cast<int>(builtins_.size());
    b.name = std::move(name);
    b.arity = arity;
    b.functional = functional;
    b.fn = fn;
    builtins_.push_back(std::move(b));
  };
  // Fixed result kinds, recorded after registration (see the table at
  // the bottom of this constructor).

  // ---- String methods (functional; paper: String, Pattern etc.) ----
  add("str.len", 1, true, [](const Value* a, Value* r) {
    MANIMAL_RETURN_IF_ERROR(WantStr(a[0], "str.len"));
    *r = Value::I64(static_cast<int64_t>(a[0].str().size()));
    return Status::OK();
  });
  add("str.concat", 2, true, [](const Value* a, Value* r) {
    MANIMAL_RETURN_IF_ERROR(WantStr(a[0], "str.concat"));
    MANIMAL_RETURN_IF_ERROR(WantStr(a[1], "str.concat"));
    std::string_view x = a[0].str();
    std::string_view y = a[1].str();
    std::string cat;
    cat.reserve(x.size() + y.size());
    cat.append(x);
    cat.append(y);
    *r = Value::Str(std::move(cat));
    return Status::OK();
  });
  add("str.substr", 3, true, [](const Value* a, Value* r) {
    MANIMAL_RETURN_IF_ERROR(WantStr(a[0], "str.substr"));
    MANIMAL_RETURN_IF_ERROR(WantI64(a[1], "str.substr"));
    MANIMAL_RETURN_IF_ERROR(WantI64(a[2], "str.substr"));
    int64_t start = std::max<int64_t>(a[1].i64(), 0);
    int64_t len = std::max<int64_t>(a[2].i64(), 0);
    *r = SubstrValue(a[0], static_cast<size_t>(start),
                     static_cast<size_t>(len));
    return Status::OK();
  });
  add("str.contains", 2, true, [](const Value* a, Value* r) {
    MANIMAL_RETURN_IF_ERROR(WantStr(a[0], "str.contains"));
    MANIMAL_RETURN_IF_ERROR(WantStr(a[1], "str.contains"));
    *r = Value::Bool(a[0].str().find(a[1].str()) !=
                     std::string_view::npos);
    return Status::OK();
  });
  add("str.starts_with", 2, true, [](const Value* a, Value* r) {
    MANIMAL_RETURN_IF_ERROR(WantStr(a[0], "str.starts_with"));
    MANIMAL_RETURN_IF_ERROR(WantStr(a[1], "str.starts_with"));
    *r = Value::Bool(StartsWith(a[0].str(), a[1].str()));
    return Status::OK();
  });
  add("str.ends_with", 2, true, [](const Value* a, Value* r) {
    MANIMAL_RETURN_IF_ERROR(WantStr(a[0], "str.ends_with"));
    MANIMAL_RETURN_IF_ERROR(WantStr(a[1], "str.ends_with"));
    *r = Value::Bool(EndsWith(a[0].str(), a[1].str()));
    return Status::OK();
  });
  add("str.index_of", 2, true, [](const Value* a, Value* r) {
    MANIMAL_RETURN_IF_ERROR(WantStr(a[0], "str.index_of"));
    MANIMAL_RETURN_IF_ERROR(WantStr(a[1], "str.index_of"));
    size_t pos = a[0].str().find(a[1].str());
    *r = Value::I64(pos == std::string_view::npos
                        ? -1
                        : static_cast<int64_t>(pos));
    return Status::OK();
  });
  add("str.to_lower", 1, true, [](const Value* a, Value* r) {
    MANIMAL_RETURN_IF_ERROR(WantStr(a[0], "str.to_lower"));
    std::string s(a[0].str());
    for (char& c : s) c = static_cast<char>(std::tolower(c));
    *r = Value::Str(std::move(s));
    return Status::OK();
  });
  add("str.equals", 2, true, [](const Value* a, Value* r) {
    MANIMAL_RETURN_IF_ERROR(WantStr(a[0], "str.equals"));
    MANIMAL_RETURN_IF_ERROR(WantStr(a[1], "str.equals"));
    *r = Value::Bool(a[0].str() == a[1].str());
    return Status::OK();
  });
  // Word-level helpers modeling text tokenization (Benchmark 4 style).
  add("str.word_count", 1, true, [](const Value* a, Value* r) {
    MANIMAL_RETURN_IF_ERROR(WantStr(a[0], "str.word_count"));
    int64_t count = 0;
    bool in_word = false;
    for (char c : a[0].str()) {
      bool is_space = (c == ' ' || c == '\t' || c == '\n');
      if (!is_space && !in_word) ++count;
      in_word = !is_space;
    }
    *r = Value::I64(count);
    return Status::OK();
  });
  add("str.word_at", 2, true, [](const Value* a, Value* r) {
    MANIMAL_RETURN_IF_ERROR(WantStr(a[0], "str.word_at"));
    MANIMAL_RETURN_IF_ERROR(WantI64(a[1], "str.word_at"));
    std::string_view s = a[0].str();
    int64_t want = a[1].i64();
    // Memoizable storage classes: owned (shared_ptr identity) and
    // borrowed (address + borrow epoch). See WordAtMemo above.
    const std::shared_ptr<std::string>* owned = a[0].if_owned_str();
    bool memoizable = owned != nullptr || a[0].is_borrowed_str();
    WordAtMemo& memo = g_word_at_memo;
    size_t pos = 0;
    int64_t index = -1;
    if (memoizable && memo.data == s.data() && memo.len == s.size() &&
        want >= memo.next_index &&
        (owned != nullptr
             ? memo.keepalive.get() == owned->get()
             : (memo.keepalive == nullptr && memo.epoch == g_borrow_epoch))) {
      pos = memo.offset;
      index = memo.next_index - 1;
    }
    size_t start = 0, end = 0;
    if (FindWord(s, want, pos, index, &start, &end)) {
      if (memoizable) {
        memo.data = s.data();
        memo.len = s.size();
        memo.epoch = g_borrow_epoch;
        memo.keepalive = (owned != nullptr)
                             ? *owned
                             : std::shared_ptr<std::string>();
        memo.next_index = want + 1;
        memo.offset = end;
      }
      *r = SubstrValue(a[0], start, end - start);
      return Status::OK();
    }
    *r = Value::Str("");
    return Status::OK();
  });

  // ---- Pattern (a simple glob matcher: '*' wildcard) ----
  add("pattern.matches", 2, true, [](const Value* a, Value* r) {
    MANIMAL_RETURN_IF_ERROR(WantStr(a[0], "pattern.matches"));
    MANIMAL_RETURN_IF_ERROR(WantStr(a[1], "pattern.matches"));
    std::string_view s = a[0].str();
    std::string_view pat = a[1].str();
    // Iterative glob match with '*' only.
    size_t si = 0, pi = 0, star = std::string_view::npos, mark = 0;
    while (si < s.size()) {
      if (pi < pat.size() && (pat[pi] == s[si])) {
        ++si;
        ++pi;
      } else if (pi < pat.size() && pat[pi] == '*') {
        star = pi++;
        mark = si;
      } else if (star != std::string_view::npos) {
        pi = star + 1;
        si = ++mark;
      } else {
        *r = Value::Bool(false);
        return Status::OK();
      }
    }
    while (pi < pat.size() && pat[pi] == '*') ++pi;
    *r = Value::Bool(pi == pat.size());
    return Status::OK();
  });

  // ---- Parsing ----
  add("parse.i64", 1, true, [](const Value* a, Value* r) {
    MANIMAL_RETURN_IF_ERROR(WantStr(a[0], "parse.i64"));
    *r = Value::I64(ParseNumeral(a[0].str(), [](const char* p) {
      return std::strtoll(p, nullptr, 10);
    }));
    return Status::OK();
  });
  add("parse.f64", 1, true, [](const Value* a, Value* r) {
    MANIMAL_RETURN_IF_ERROR(WantStr(a[0], "parse.f64"));
    *r = Value::F64(ParseNumeral(a[0].str(), [](const char* p) {
      return std::strtod(p, nullptr);
    }));
    return Status::OK();
  });

  // ---- Math ----
  add("math.abs", 1, true, [](const Value* a, Value* r) {
    MANIMAL_RETURN_IF_ERROR(WantNumeric(a[0], "math.abs"));
    if (a[0].is_i64()) {
      *r = Value::I64(std::llabs(a[0].i64()));
    } else {
      *r = Value::F64(std::fabs(a[0].f64()));
    }
    return Status::OK();
  });
  add("math.min", 2, true, [](const Value* a, Value* r) {
    MANIMAL_RETURN_IF_ERROR(WantNumeric(a[0], "math.min"));
    MANIMAL_RETURN_IF_ERROR(WantNumeric(a[1], "math.min"));
    *r = a[0].Compare(a[1]) <= 0 ? a[0] : a[1];
    return Status::OK();
  });
  add("math.max", 2, true, [](const Value* a, Value* r) {
    MANIMAL_RETURN_IF_ERROR(WantNumeric(a[0], "math.max"));
    MANIMAL_RETURN_IF_ERROR(WantNumeric(a[1], "math.max"));
    *r = a[0].Compare(a[1]) >= 0 ? a[0] : a[1];
    return Status::OK();
  });

  // ---- URL helpers ----
  add("url.host", 1, true, [](const Value* a, Value* r) {
    MANIMAL_RETURN_IF_ERROR(WantStr(a[0], "url.host"));
    std::string_view s = a[0].str();
    size_t start = 0;
    size_t scheme = s.find("://");
    if (scheme != std::string_view::npos) start = scheme + 3;
    size_t slash = s.find('/', start);
    size_t len = (slash == std::string_view::npos) ? std::string_view::npos
                                                   : slash - start;
    *r = SubstrValue(a[0], start, len);
    return Status::OK();
  });

  // ---- Opaque-tuple accessors (AbstractTuple model). Functional:
  // results depend only on the blob argument — but they carry no
  // field-level schema information, so projection analysis cannot see
  // through them. ----
  add("opaque.get_i64", 2, true, [](const Value* a, Value* r) {
    MANIMAL_RETURN_IF_ERROR(WantStr(a[0], "opaque.get_i64"));
    MANIMAL_RETURN_IF_ERROR(WantI64(a[1], "opaque.get_i64"));
    MANIMAL_ASSIGN_OR_RETURN(
        Value v, OpaqueTupleCodec::GetField(a[0].str(),
                                            static_cast<int>(a[1].i64())));
    if (!v.is_i64()) {
      return Status::InvalidArgument("opaque.get_i64: field not i64");
    }
    *r = v;
    return Status::OK();
  });
  add("opaque.get_f64", 2, true, [](const Value* a, Value* r) {
    MANIMAL_RETURN_IF_ERROR(WantStr(a[0], "opaque.get_f64"));
    MANIMAL_RETURN_IF_ERROR(WantI64(a[1], "opaque.get_f64"));
    MANIMAL_ASSIGN_OR_RETURN(
        Value v, OpaqueTupleCodec::GetField(a[0].str(),
                                            static_cast<int>(a[1].i64())));
    if (!v.is_f64()) {
      return Status::InvalidArgument("opaque.get_f64: field not f64");
    }
    *r = v;
    return Status::OK();
  });
  add("opaque.get_str", 2, true, [](const Value* a, Value* r) {
    MANIMAL_RETURN_IF_ERROR(WantStr(a[0], "opaque.get_str"));
    MANIMAL_RETURN_IF_ERROR(WantI64(a[1], "opaque.get_str"));
    const std::string_view blob = a[0].str();
    MANIMAL_ASSIGN_OR_RETURN(
        std::string_view field,
        OpaqueTupleCodec::GetStrField(blob, static_cast<int>(a[1].i64())));
    // A slice of the blob: borrowed when the blob is (the VM promotes
    // whatever escapes the record), one copy otherwise.
    *r = SubstrValue(a[0], static_cast<size_t>(field.data() - blob.data()),
                     field.size());
    return Status::OK();
  });

  // ---- Lists (reduce-side grouped values) ----
  add("list.len", 1, true, [](const Value* a, Value* r) {
    if (!a[0].is_list()) {
      return Status::InvalidArgument("list.len: expected list");
    }
    *r = Value::I64(static_cast<int64_t>(a[0].list().size()));
    return Status::OK();
  });
  // List constructors (multi-column emit values, e.g. pipeline
  // intermediates).
  add("list.pack2", 2, true, [](const Value* a, Value* r) {
    *r = Value::List({a[0], a[1]});
    return Status::OK();
  });
  add("list.pack3", 3, true, [](const Value* a, Value* r) {
    *r = Value::List({a[0], a[1], a[2]});
    return Status::OK();
  });
  add("list.get", 2, true, [](const Value* a, Value* r) {
    if (!a[0].is_list()) {
      return Status::InvalidArgument("list.get: expected list");
    }
    MANIMAL_RETURN_IF_ERROR(WantI64(a[1], "list.get"));
    int64_t i = a[1].i64();
    if (i < 0 || static_cast<size_t>(i) >= a[0].list().size()) {
      return Status::OutOfRange("list.get: index out of range");
    }
    *r = a[0].list()[i];
    return Status::OK();
  });

  // ---- Hashtable: NOT functional. The analyzer has no built-in
  // model of this class (paper §4.1, Benchmark 4). ----
  add("ht.new", 0, false, [](const Value*, Value* r) {
    *r = Value::Handle(std::make_shared<HashtableObject>());
    return Status::OK();
  });
  add("ht.put", 3, false, [](const Value* a, Value* r) {
    HashtableObject* ht = nullptr;
    MANIMAL_RETURN_IF_ERROR(WantHashtable(a[0], &ht, "ht.put"));
    ht->Put(a[1], a[2]);
    *r = Value::Null();
    return Status::OK();
  });
  add("ht.contains", 2, false, [](const Value* a, Value* r) {
    HashtableObject* ht = nullptr;
    MANIMAL_RETURN_IF_ERROR(WantHashtable(a[0], &ht, "ht.contains"));
    *r = Value::Bool(ht->Contains(a[1]));
    return Status::OK();
  });
  add("ht.get", 2, false, [](const Value* a, Value* r) {
    HashtableObject* ht = nullptr;
    MANIMAL_RETURN_IF_ERROR(WantHashtable(a[0], &ht, "ht.get"));
    *r = ht->Get(a[1]);
    return Status::OK();
  });
  add("ht.size", 1, false, [](const Value* a, Value* r) {
    HashtableObject* ht = nullptr;
    MANIMAL_RETURN_IF_ERROR(WantHashtable(a[0], &ht, "ht.size"));
    *r = Value::I64(ht->Size());
    return Status::OK();
  });

  // Static result-kind knowledge (argument-independent return kinds).
  auto set_kind = [this](const char* name, ValueKind kind) {
    for (Builtin& b : builtins_) {
      if (b.name == name) b.result_kind = kind;
    }
  };
  for (const char* name :
       {"str.len", "str.index_of", "str.word_count", "parse.i64",
        "opaque.get_i64", "list.len", "ht.size"}) {
    set_kind(name, ValueKind::kI64);
  }
  for (const char* name :
       {"str.contains", "str.starts_with", "str.ends_with", "str.equals",
        "pattern.matches", "ht.contains"}) {
    set_kind(name, ValueKind::kBool);
  }
  for (const char* name :
       {"str.concat", "str.substr", "str.to_lower", "str.word_at",
        "url.host", "opaque.get_str"}) {
    set_kind(name, ValueKind::kStr);
  }
  set_kind("parse.f64", ValueKind::kF64);
  set_kind("opaque.get_f64", ValueKind::kF64);
}

const BuiltinRegistry& BuiltinRegistry::Get() {
  static const BuiltinRegistry* registry = new BuiltinRegistry();
  return *registry;
}

const Builtin* BuiltinRegistry::FindByName(std::string_view name) const {
  for (const Builtin& b : builtins_) {
    if (b.name == name) return &b;
  }
  return nullptr;
}

const Builtin* BuiltinRegistry::FindById(int id) const {
  if (id < 0 || id >= size()) return nullptr;
  return &builtins_[id];
}

}  // namespace manimal::mril
