#include "common/status.hpp"

namespace qvg {

const char* error_code_name(ErrorCode code) noexcept {
  const auto index = static_cast<std::size_t>(code);
  return index < kErrorCodeNames.size() ? kErrorCodeNames[index].data()
                                        : "unknown";
}

Status Status::failure(ErrorCode code, std::string stage, std::string detail) {
  if (code == ErrorCode::kOk)
    throw ContractViolation("Status::failure called with ErrorCode::kOk");
  return Status(code, std::move(stage), std::move(detail));
}

std::string Status::message() const {
  if (ok()) return {};
  if (stage_.empty()) return detail_;
  if (detail_.empty()) return stage_;
  return stage_ + ": " + detail_;
}

}  // namespace qvg
