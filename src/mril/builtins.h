// The MRIL builtin method library — the analogue of the Java class
// library calls (String, Pattern, Hashtable, ...) that appear inside
// users' map() functions.
//
// Each builtin carries a `functional` bit: whether the analyzer has
// built-in knowledge that the method's result depends only on its
// arguments (paper §3.2, the isFunc test: "The analyzer has built-in
// knowledge of standard language operations and some common class
// library methods, such as those associated with String, Pattern,
// etc."). Hashtable methods are deliberately registered as
// NON-functional: the paper's analyzer "does not have builtin
// knowledge of how Hashtable works", which is exactly why Benchmark 4's
// selection goes Undetected in Table 1.

#ifndef MANIMAL_MRIL_BUILTINS_H_
#define MANIMAL_MRIL_BUILTINS_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "serde/value.h"

namespace manimal::mril {

// Builtins receive their arguments as a raw span (`args[0..arity)`)
// so the VM can pass a slice of its operand stack directly — no
// per-call vector. A plain function pointer (every builtin is a
// captureless lambda) keeps the call a single indirect jump.
// `result` never aliases `args`.
using BuiltinFn = Status (*)(const Value* args, Value* result);

struct Builtin {
  int id;
  std::string name;
  int arity;
  // True iff the result is a pure function of the arguments AND the
  // call has no side effects — the analyzer's purity knowledge.
  bool functional;
  // The result's value kind when it is fixed regardless of arguments
  // (static-typing knowledge used by the optimizer's arithmetic
  // normalizations); nullopt when argument-dependent.
  std::optional<ValueKind> result_kind;
  BuiltinFn fn;
};

// Global immutable registry, populated at first use.
class BuiltinRegistry {
 public:
  static const BuiltinRegistry& Get();

  const Builtin* FindByName(std::string_view name) const;
  const Builtin* FindById(int id) const;
  int size() const { return static_cast<int>(builtins_.size()); }
  const std::vector<Builtin>& all() const { return builtins_; }

 private:
  BuiltinRegistry();
  std::vector<Builtin> builtins_;
};

// Invalidates the thread's memoized-scan state for *borrowed* string
// arguments (currently the str.word_at sequential-tokenization memo).
// Borrowed strings are identified only by (pointer, length), which is
// unambiguous while their backing buffers are live but can collide
// once a buffer is reclaimed and reused. The VM calls this at every
// invocation entry — the same boundary at which it resets the arena
// and record buffers may be recycled — so a memo never outlives the
// buffers that vouch for its key. Owned strings are keyed by
// shared_ptr identity (with a keepalive reference) and need no
// invalidation.
void InvalidateBorrowedStringMemos();

// A mutable Value->Value map object, reachable from MRIL code through
// kHandle values (the Java Hashtable stand-in).
class HashtableObject : public ObjectHandle {
 public:
  std::string TypeName() const override { return "hashtable"; }

  // Stored key/value are promoted with ToOwned(): the table outlives
  // the record whose buffer a borrowed argument may point into.
  void Put(const Value& key, const Value& value);
  bool Contains(const Value& key) const;
  Value Get(const Value& key) const;  // Null if absent
  int64_t Size() const { return static_cast<int64_t>(entries_.size()); }

 private:
  // Insertion-ordered (key, value) pairs, searched linearly with
  // Value::operator== (tables stay per-record small in practice).
  std::vector<std::pair<Value, Value>> entries_;
};

}  // namespace manimal::mril

#endif  // MANIMAL_MRIL_BUILTINS_H_
