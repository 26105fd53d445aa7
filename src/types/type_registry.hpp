// TypeRegistry — the "network name server" for data type specifiers.
//
// One registry is shared by every address space in a World (the paper's
// database mapping type specifiers to actual data structures). It is
// thread-safe: spaces run on their own threads and resolve type ids during
// marshalling, cache fills, and fault handling.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "types/type_descriptor.hpp"

namespace srpc {

class TypeRegistry {
 public:
  TypeRegistry();
  TypeRegistry(const TypeRegistry&) = delete;
  TypeRegistry& operator=(const TypeRegistry&) = delete;

  // --- registration (normally done once, before any RPC traffic) ---

  // Declares a struct type by name so pointer fields can reference it before
  // its own fields are known (self-referential and mutually-recursive types).
  Result<TypeId> declare_struct(const std::string& name);

  // Completes a previously declared struct. Fails if already defined.
  Status define_struct(TypeId id, std::vector<FieldDescriptor> fields);

  // Declares and defines in one step.
  Result<TypeId> register_struct(const std::string& name,
                                 std::vector<FieldDescriptor> fields);

  // Interns the pointer-to-T type (idempotent).
  TypeId pointer_to(TypeId pointee);

  // Interns the T[count] type (idempotent).
  TypeId array_of(TypeId element, std::uint32_t count);

  // --- lookup ---

  [[nodiscard]] static TypeId scalar_id(ScalarType s) noexcept {
    return static_cast<TypeId>(s);
  }

  Result<const TypeDescriptor*> find(TypeId id) const;
  Result<TypeId> find_by_name(const std::string& name) const;

  // Like find() but throws std::logic_error; for ids the runtime itself
  // produced (a miss is a bug, not an input error).
  const TypeDescriptor& get(TypeId id) const;

  [[nodiscard]] std::size_t type_count() const;

 private:
  TypeId next_id_locked() { return next_id_++; }

  mutable std::mutex mutex_;
  TypeId next_id_ = kFirstUserTypeId;
  // node-based map: descriptor addresses stay stable across registration.
  std::map<TypeId, TypeDescriptor> types_;
  std::unordered_map<std::string, TypeId> by_name_;
  std::unordered_map<TypeId, TypeId> pointer_cache_;  // pointee -> pointer id
  std::map<std::pair<TypeId, std::uint32_t>, TypeId> array_cache_;
};

}  // namespace srpc
