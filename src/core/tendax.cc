#include "core/tendax.h"

namespace tendax {

Result<std::unique_ptr<TendaxServer>> TendaxServer::Open(
    TendaxOptions options) {
  auto server = std::unique_ptr<TendaxServer>(new TendaxServer());

  if (!options.db.metrics) {
    options.db.metrics =
        std::make_shared<MetricsRegistry>(options.metrics_enabled);
  }
  auto db = Database::Open(options.db);
  if (!db.ok()) return db.status();
  server->db_ = std::move(*db);
  Database* raw_db = server->db_.get();

  server->text_ = std::make_unique<TextStore>(raw_db);
  TENDAX_RETURN_IF_ERROR(server->text_->Init());

  server->meta_ = std::make_unique<MetaStore>(raw_db);
  TENDAX_RETURN_IF_ERROR(server->meta_->Init());

  server->acl_ = std::make_unique<AccessControl>(
      raw_db, server->text_.get(), options.default_open_access);
  TENDAX_RETURN_IF_ERROR(server->acl_->Init());

  server->docs_ =
      std::make_unique<DocumentModel>(raw_db, server->text_.get());
  TENDAX_RETURN_IF_ERROR(server->docs_->Init());

  server->sessions_ = std::make_unique<SessionManager>(
      raw_db, server->meta_.get(), options.session);
  TENDAX_RETURN_IF_ERROR(server->sessions_->Init());

  server->admission_ = std::make_unique<AdmissionController>(
      options.admission, raw_db->metrics());
  if (options.db.checkpoint_dirty_page_threshold > 0) {
    // Degradation signal: the same dirty-page threshold that triggers a
    // fuzzy checkpoint marks the server as under buffer-pool pressure.
    BufferPool* pool = raw_db->buffer_pool();
    const size_t threshold = options.db.checkpoint_dirty_page_threshold;
    server->admission_->SetPressureProbe(
        [pool, threshold] { return pool->DirtyCount() >= threshold; });
  }
  server->sessions_->AttachAdmission(server->admission_.get());

  server->undo_ = std::make_unique<UndoManager>(server->text_.get());

  server->workflows_ = std::make_unique<WorkflowEngine>(
      raw_db, server->text_.get(), server->acl_.get());
  TENDAX_RETURN_IF_ERROR(server->workflows_->Init());

  server->lineage_ = std::make_unique<LineageAnalyzer>(server->text_.get());

  server->folders_ = std::make_unique<FolderManager>(
      raw_db, server->text_.get(), server->meta_.get());
  TENDAX_RETURN_IF_ERROR(server->folders_->Init());

  server->search_ = std::make_unique<SearchEngine>(
      raw_db, server->text_.get(), server->meta_.get(), server->docs_.get(),
      server->lineage_.get());
  TENDAX_RETURN_IF_ERROR(server->search_->Init());

  server->text_miner_ = std::make_unique<TextMiner>(server->text_.get());
  server->visual_miner_ = std::make_unique<VisualMiner>(
      server->text_.get(), server->meta_.get(), server->lineage_.get(),
      raw_db->clock());
  server->diff_ = std::make_unique<VersionDiff>(server->text_.get());
  server->templates_ = std::make_unique<TemplateStore>(
      raw_db, server->text_.get(), server->docs_.get());
  TENDAX_RETURN_IF_ERROR(server->templates_->Init());

  return server;
}

Result<std::unique_ptr<Editor>> TendaxServer::AttachEditor(
    UserId user, const std::string& client) {
  auto session = sessions_->Connect(user, client);
  if (!session.ok()) return session.status();
  CollabServices services;
  services.text = text_.get();
  services.docs = docs_.get();
  services.acl = acl_.get();
  services.meta = meta_.get();
  services.sessions = sessions_.get();
  services.undo = undo_.get();
  services.metrics = db_->metrics();
  services.clock = db_->clock();
  services.admission = admission_.get();
  return std::make_unique<Editor>(services, *session, user);
}

}  // namespace tendax
