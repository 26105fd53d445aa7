#include "types/type_registry.hpp"

#include <stdexcept>

namespace srpc {

namespace {
struct ScalarSpec {
  ScalarType type;
  const char* name;
};
constexpr ScalarSpec kScalars[] = {
    {ScalarType::kI8, "i8"},   {ScalarType::kU8, "u8"},
    {ScalarType::kI16, "i16"}, {ScalarType::kU16, "u16"},
    {ScalarType::kI32, "i32"}, {ScalarType::kU32, "u32"},
    {ScalarType::kI64, "i64"}, {ScalarType::kU64, "u64"},
    {ScalarType::kF32, "f32"}, {ScalarType::kF64, "f64"},
    {ScalarType::kBool, "bool"},
};
}  // namespace

TypeRegistry::TypeRegistry() {
  for (const auto& s : kScalars) {
    const TypeId id = scalar_id(s.type);
    types_.emplace(id, TypeDescriptor::make_scalar(id, s.type, s.name));
    by_name_.emplace(s.name, id);
  }
}

Result<TypeId> TypeRegistry::declare_struct(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (by_name_.contains(name)) {
    return already_exists("type name already registered: " + name);
  }
  const TypeId id = next_id_locked();
  types_.emplace(id, TypeDescriptor::make_struct(id, name, {}));
  by_name_.emplace(name, id);
  return id;
}

Status TypeRegistry::define_struct(TypeId id, std::vector<FieldDescriptor> fields) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = types_.find(id);
  if (it == types_.end()) {
    return not_found("define_struct: unknown type id " + std::to_string(id));
  }
  if (it->second.kind() != TypeKind::kStruct) {
    return invalid_argument("define_struct on non-struct: " + it->second.name());
  }
  if (!it->second.is_incomplete()) {
    return failed_precondition("struct already defined: " + it->second.name());
  }
  for (const auto& f : fields) {
    if (!types_.contains(f.type)) {
      return not_found("field '" + f.name + "' has unknown type id " +
                       std::to_string(f.type));
    }
  }
  it->second.complete(std::move(fields));
  return Status::ok();
}

Result<TypeId> TypeRegistry::register_struct(const std::string& name,
                                             std::vector<FieldDescriptor> fields) {
  auto id = declare_struct(name);
  if (!id) return id.status();
  SRPC_RETURN_IF_ERROR(define_struct(id.value(), std::move(fields)));
  return id.value();
}

TypeId TypeRegistry::pointer_to(TypeId pointee) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = pointer_cache_.find(pointee);
  if (it != pointer_cache_.end()) return it->second;
  auto target = types_.find(pointee);
  if (target == types_.end()) {
    throw std::logic_error("pointer_to: unknown pointee id " + std::to_string(pointee));
  }
  const TypeId id = next_id_locked();
  types_.emplace(id, TypeDescriptor::make_pointer(id, pointee, target->second.name() + "*"));
  pointer_cache_.emplace(pointee, id);
  return id;
}

TypeId TypeRegistry::array_of(TypeId element, std::uint32_t count) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto key = std::make_pair(element, count);
  auto it = array_cache_.find(key);
  if (it != array_cache_.end()) return it->second;
  auto target = types_.find(element);
  if (target == types_.end()) {
    throw std::logic_error("array_of: unknown element id " + std::to_string(element));
  }
  const TypeId id = next_id_locked();
  types_.emplace(id, TypeDescriptor::make_array(
                         id, element, count,
                         target->second.name() + "[" + std::to_string(count) + "]"));
  array_cache_.emplace(key, id);
  return id;
}

Result<const TypeDescriptor*> TypeRegistry::find(TypeId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = types_.find(id);
  if (it == types_.end()) {
    return not_found("unknown type id " + std::to_string(id));
  }
  return &it->second;
}

Result<TypeId> TypeRegistry::find_by_name(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return not_found("unknown type name: " + name);
  }
  return it->second;
}

const TypeDescriptor& TypeRegistry::get(TypeId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = types_.find(id);
  if (it == types_.end()) {
    throw std::logic_error("TypeRegistry::get: unknown type id " + std::to_string(id));
  }
  return it->second;
}

std::size_t TypeRegistry::type_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return types_.size();
}

}  // namespace srpc
